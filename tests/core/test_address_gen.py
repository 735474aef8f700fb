"""Unit tests for address generation (key -> PE routing, key -> path)."""

import numpy as np
import pytest

from repro.core.address_gen import AddressGenerator
from repro.octomap.keys import OcTreeKey


@pytest.fixture
def generator() -> AddressGenerator:
    return AddressGenerator(resolution_m=0.2, tree_depth=16, num_pes=8)


class TestRouting:
    def test_branch_id_matches_level0_child_index(self, generator):
        key = generator.key_for_point(1.0, -1.0, 2.0)
        assert generator.branch_id(key) == key.child_index(0, 16)

    def test_eight_octants_map_to_eight_pes(self, generator):
        pes = set()
        for x in (-1.0, 1.0):
            for y in (-1.0, 1.0):
                for z in (-1.0, 1.0):
                    pes.add(generator.pe_for_key(generator.key_for_point(x, y, z)))
        assert pes == set(range(8))

    def test_same_octant_maps_to_same_pe(self, generator):
        a = generator.pe_for_key(generator.key_for_point(1.0, 2.0, 3.0))
        b = generator.pe_for_key(generator.key_for_point(50.0, 60.0, 70.0))
        assert a == b

    def test_fewer_pes_fold_branches_with_modulo(self):
        generator = AddressGenerator(0.2, 16, num_pes=2)
        for x in (-1.0, 1.0):
            for y in (-1.0, 1.0):
                for z in (-1.0, 1.0):
                    pe = generator.pe_for_key(generator.key_for_point(x, y, z))
                    assert pe in (0, 1)

    def test_single_pe_receives_everything(self):
        generator = AddressGenerator(0.2, 16, num_pes=1)
        assert generator.pe_for_key(generator.key_for_point(5.0, -3.0, 1.0)) == 0

    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            AddressGenerator(0.2, 16, num_pes=0)


class TestPaths:
    def test_converter_round_trip(self, generator):
        key = generator.key_for_point(3.1, -2.7, 0.4)
        centre = generator.converter.key_to_coord(key)
        assert generator.key_for_point(*centre) == key


class TestShardIndex:
    @pytest.mark.parametrize("prefix_levels", range(1, 17))
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 7, 8])
    def test_bit_spread_equals_the_level_fold_and_the_array_form(self, generator, prefix_levels, num_shards):
        keys = np.random.default_rng(prefix_levels * 8 + num_shards).integers(0, 0x10000, size=(200, 3))
        keys[:4] = [[0, 0, 0], [0xFFFF, 0xFFFF, 0xFFFF], [0xFFFF, 0, 0], [0, 0, 0xFFFF]]
        scalar = []
        for x, y, z in keys.tolist():
            key = OcTreeKey(x, y, z)
            folded = 0
            for child_index in key.path(16, max_level=prefix_levels):
                folded = folded * 8 + child_index
            shard = generator.shard_index(key, num_shards, prefix_levels)
            assert shard == folded % num_shards
            scalar.append(shard)
        assert scalar == generator.shard_indices(keys, num_shards, prefix_levels).tolist()

    def test_a_shallower_tree_ignores_the_bits_above_its_depth(self):
        shallow = AddressGenerator(0.2, tree_depth=12, num_pes=8)
        assert shallow.shard_index(OcTreeKey(0xF123, 0xF456, 0xF789), 5, 9) == shallow.shard_index(
            OcTreeKey(0x0123, 0x0456, 0x0789), 5, 9
        )

    def test_rejects_a_prefix_deeper_than_the_tree(self, generator):
        with pytest.raises(ValueError, match="prefix_levels"):
            generator.shard_index(OcTreeKey(1, 2, 3), 2, 17)
        with pytest.raises(ValueError, match="num_shards"):
            generator.shard_index(OcTreeKey(1, 2, 3), 0, 1)
