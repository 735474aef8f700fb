"""Unit tests for voxel keys and coordinate conversion."""

import pytest

from repro.octomap.keys import KeyConverter, OcTreeKey


class TestOcTreeKey:
    def test_component_range_validation(self):
        with pytest.raises(ValueError):
            OcTreeKey(-1, 0, 0)
        with pytest.raises(ValueError):
            OcTreeKey(0, 70000, 0)

    def test_as_tuple(self):
        assert OcTreeKey(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_keys_are_hashable_and_comparable(self):
        a = OcTreeKey(1, 2, 3)
        b = OcTreeKey(1, 2, 3)
        c = OcTreeKey(1, 2, 4)
        assert a == b
        assert len({a, b, c}) == 2
        assert a < c

    def test_child_index_packs_axis_bits(self):
        # Top bit of each component drives the level-0 child index.
        key = OcTreeKey(0x8000, 0x0000, 0x8000)
        assert key.child_index(0, 16) == 0b101

    def test_child_index_at_leaf_level_uses_lowest_bit(self):
        key = OcTreeKey(1, 0, 1)
        assert key.child_index(15, 16) == 0b101

    def test_child_index_level_bounds(self):
        key = OcTreeKey(0, 0, 0)
        with pytest.raises(ValueError):
            key.child_index(16, 16)
        with pytest.raises(ValueError):
            key.child_index(-1, 16)

    def test_path_has_one_entry_per_level(self):
        key = OcTreeKey(0xABCD, 0x1234, 0x8765)
        path = key.path(16)
        assert len(path) == 16
        assert all(0 <= index <= 7 for index in path)

    def test_path_reconstructs_key(self):
        key = OcTreeKey(0xABCD, 0x1234, 0x8765)
        kx = ky = kz = 0
        for level, index in enumerate(key.path(16)):
            bit = 16 - 1 - level
            kx |= ((index >> 0) & 1) << bit
            ky |= ((index >> 1) & 1) << bit
            kz |= ((index >> 2) & 1) << bit
        assert (kx, ky, kz) == key.as_tuple()


class TestKeyConverter:
    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            KeyConverter(0.0)
        with pytest.raises(ValueError):
            KeyConverter(-0.1)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            KeyConverter(0.1, tree_depth=0)
        with pytest.raises(ValueError):
            KeyConverter(0.1, tree_depth=20)

    def test_origin_maps_to_centre_of_key_space(self):
        converter = KeyConverter(0.1)
        key = converter.coord_to_key(0.0, 0.0, 0.0)
        assert key.as_tuple() == (32768, 32768, 32768)

    def test_key_to_coord_returns_voxel_centre(self):
        converter = KeyConverter(0.1)
        key = converter.coord_to_key(0.0, 0.0, 0.0)
        assert converter.key_to_coord(key) == pytest.approx((0.05, 0.05, 0.05))

    def test_coord_key_roundtrip_stays_in_voxel(self):
        converter = KeyConverter(0.05)
        for point in ((1.234, -5.678, 9.01), (-0.01, 0.01, 0.0), (100.0, -100.0, 55.5)):
            key = converter.coord_to_key(*point)
            centre = converter.key_to_coord(key)
            for axis in range(3):
                assert abs(centre[axis] - point[axis]) <= converter.resolution / 2.0 + 1e-9

    def test_negative_coordinates_map_below_centre(self):
        converter = KeyConverter(0.2)
        key = converter.coord_to_key(-0.1, -0.3, -0.5)
        assert key.x == 32767
        assert key.y == 32766
        assert key.z == 32765

    def test_out_of_range_coordinate_raises(self):
        converter = KeyConverter(0.1, tree_depth=16)
        with pytest.raises(ValueError):
            converter.coord_to_key(converter.max_coordinate + 1.0, 0.0, 0.0)

    def test_is_coordinate_in_range(self):
        converter = KeyConverter(0.1)
        assert converter.is_coordinate_in_range(0.0, 0.0, 0.0)
        assert not converter.is_coordinate_in_range(1e6, 0.0, 0.0)
        limit = converter.max_coordinate
        assert converter.is_coordinate_in_range(-limit, -limit, -limit)
        for outside in ((limit, 0.0, 0.0), (0.0, limit, 0.0), (0.0, 0.0, limit), (0.0, float("nan"), 0.0)):
            assert not converter.is_coordinate_in_range(*outside), outside

    def test_node_size_doubles_per_level(self):
        converter = KeyConverter(0.1, tree_depth=16)
        assert converter.node_size(16) == pytest.approx(0.1)
        assert converter.node_size(15) == pytest.approx(0.2)
        assert converter.node_size(0) == pytest.approx(0.1 * 65536)

    def test_node_size_depth_bounds(self):
        converter = KeyConverter(0.1)
        with pytest.raises(ValueError):
            converter.node_size(17)

    def test_key_component_to_coord_at_coarse_depth(self):
        converter = KeyConverter(0.2, tree_depth=16)
        key = converter.coord_to_key(1.0, 1.0, 1.0)
        coord = converter.key_to_coord(key, depth=14)
        # A depth-14 voxel is 0.8 m wide; its centre must be within 0.4 m.
        for axis in range(3):
            assert abs(coord[axis] - 1.0) <= 0.4 + 1e-9

    def test_max_coordinate_scales_with_resolution(self):
        assert KeyConverter(0.1).max_coordinate == pytest.approx(3276.8)
        assert KeyConverter(0.2).max_coordinate == pytest.approx(6553.6)

    def test_shallow_tree_depth(self):
        converter = KeyConverter(1.0, tree_depth=4)
        assert converter.tree_max_val == 8
        key = converter.coord_to_key(0.0, 0.0, 0.0)
        assert key.as_tuple() == (8, 8, 8)
        with pytest.raises(ValueError):
            converter.coord_to_key(9.0, 0.0, 0.0)
