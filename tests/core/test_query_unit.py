"""Unit tests for the voxel query unit."""



class TestQuery:
    def test_occupied_voxel(self, loaded_accelerator):
        result = loaded_accelerator.query_unit.query(3.0, 0.1, 0.4)
        assert result.status == "occupied"
        assert result.probability is not None
        assert result.probability > 0.5

    def test_free_voxel(self, loaded_accelerator):
        result = loaded_accelerator.query_unit.query(1.0, 0.0, 0.4)
        assert result.status == "free"
        assert result.probability is not None
        assert result.probability < 0.5

    def test_unknown_voxel(self, loaded_accelerator):
        result = loaded_accelerator.query_unit.query(50.0, 50.0, 50.0)
        assert result.status == "unknown"
        assert result.probability is None

    def test_query_reports_serving_pe(self, loaded_accelerator):
        result = loaded_accelerator.query_unit.query(3.0, 0.1, 0.4)
        key = loaded_accelerator.address_generator.key_for_point(3.0, 0.1, 0.4)
        assert result.pe_id == loaded_accelerator.address_generator.pe_for_key(key)

    def test_query_cycles_are_positive_and_bounded(self, loaded_accelerator):
        result = loaded_accelerator.query_unit.query(3.0, 0.1, 0.4)
        # issue + at most one read per tree level + threshold compare
        assert 0 < result.cycles <= 2 + loaded_accelerator.config.tree_depth + 1

    def test_statistics_accumulate(self, loaded_accelerator):
        unit = loaded_accelerator.query_unit
        served_before = unit.queries_served
        unit.query(1.0, 0.0, 0.4)
        unit.query(2.0, 0.0, 0.4)
        assert unit.queries_served == served_before + 2
        assert unit.average_cycles_per_query() > 0

    def test_average_cycles_of_idle_unit_is_zero(self, accelerator):
        assert accelerator.query_unit.average_cycles_per_query() == 0.0

    def test_query_agrees_with_exported_software_tree(self, loaded_accelerator):
        tree = loaded_accelerator.export_octree()
        for point in ((3.0, 0.1, 0.4), (1.0, 0.0, 0.4), (-2.0, 1.0, 0.4), (40.0, 40.0, 40.0)):
            assert loaded_accelerator.query_unit.query(*point).status == tree.classify(*point)
