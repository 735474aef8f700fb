"""Unit tests for the binary tree serialization."""

import pytest

from repro.octomap.octree import OccupancyOcTree
from repro.octomap.serialization import deserialize_tree, serialize_tree


class TestRoundTrip:
    def test_empty_tree_roundtrip(self):
        tree = OccupancyOcTree(0.25)
        clone = deserialize_tree(serialize_tree(tree))
        assert clone.root is None
        assert clone.resolution == pytest.approx(0.25)

    def test_single_voxel_roundtrip(self):
        tree = OccupancyOcTree(0.1)
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        clone = deserialize_tree(serialize_tree(tree))
        assert clone.size() == tree.size()
        assert clone.classify(0.55, 0.55, 0.55) == "occupied"

    def test_full_map_roundtrip_preserves_structure(self, small_tree):
        clone = deserialize_tree(serialize_tree(small_tree))
        assert clone.size() == small_tree.size()
        assert clone.num_leaf_nodes() == small_tree.num_leaf_nodes()

    def test_roundtrip_preserves_values_within_float32(self, small_tree):
        clone = deserialize_tree(serialize_tree(small_tree))
        original = small_tree.occupancy_grid()
        restored = clone.occupancy_grid()
        assert set(original) == set(restored)
        for key, value in original.items():
            assert restored[key] == pytest.approx(value, abs=1e-5)

    def test_roundtrip_preserves_metadata(self):
        tree = OccupancyOcTree(0.05, tree_depth=12)
        tree.update_node(0.1, 0.1, 0.1, occupied=True)
        clone = deserialize_tree(serialize_tree(tree))
        assert clone.resolution == pytest.approx(0.05)
        assert clone.tree_depth == 12


class TestErrorHandling:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_tree(b"not a tree at all\n")

    def test_truncated_stream_rejected(self, small_tree):
        data = serialize_tree(small_tree)
        with pytest.raises(ValueError):
            deserialize_tree(data[: len(data) // 2])

    def test_incomplete_header_rejected(self):
        with pytest.raises(ValueError):
            deserialize_tree(b"# repro-octree v1\nres 0.1\ndata\n")

    def test_unknown_header_field_rejected(self):
        data = b"# repro-octree v1\nres 0.1\ndepth 16\nbogus 1\nsize 0\ndata\n"
        with pytest.raises(ValueError, match="bogus"):
            deserialize_tree(data)

    def test_size_mismatch_rejected(self, small_tree):
        data = serialize_tree(small_tree)
        # Corrupt the declared size in the header.
        header, _, body = data.partition(b"data\n")
        corrupted = header.replace(
            f"size {small_tree.size()}".encode(), b"size 1"
        ) + b"data\n" + body
        with pytest.raises(ValueError, match="mismatch"):
            deserialize_tree(corrupted)


class TestTornReads:
    """Byte-precise torn-read coverage: a snapshot cut off at *any* point --
    inside the header, on a node-record boundary, or mid-record -- must be
    rejected, never silently deserialized into a shorter tree.  This is what
    the failover path leans on when it rehydrates shard snapshots."""

    def test_every_header_truncation_rejected(self, small_tree):
        data = serialize_tree(small_tree)
        header_end = data.index(b"data\n") + len(b"data\n")
        for cut in range(header_end):
            with pytest.raises(ValueError):
                deserialize_tree(data[:cut])

    def test_mid_record_truncation_rejected(self, small_tree):
        data = serialize_tree(small_tree)
        header_end = data.index(b"data\n") + len(b"data\n")
        record = 5  # struct "<fB": float32 log-odds + child bitmap
        assert (len(data) - header_end) % record == 0
        # Cut inside the first, a middle, and the last node record.
        for offset in (1, record + 2, len(data) - header_end - 1):
            with pytest.raises(ValueError, match="truncated node record"):
                deserialize_tree(data[: header_end + offset])

    def test_record_boundary_truncation_rejected(self, small_tree):
        """A cut on a record boundary still fails: either the pre-order
        recursion runs out of declared children (truncated record) or the
        header-declared node count catches the short stream."""
        data = serialize_tree(small_tree)
        header_end = data.index(b"data\n") + len(b"data\n")
        assert small_tree.size() >= 2
        with pytest.raises(ValueError, match="truncated node record|mismatch"):
            deserialize_tree(data[: header_end + 5 * (small_tree.size() - 1)])

    def test_trailing_garbage_rejected(self, small_tree):
        data = serialize_tree(small_tree)
        with pytest.raises(ValueError, match="trailing bytes"):
            deserialize_tree(data + b"\x00" * 5)

    def test_corrupted_child_bitmap_still_parses_as_values(self, small_tree):
        """Flipping payload bytes (not lengths) cannot be detected by the
        framing -- but it must never crash the parser either; the node count
        check is the only structural guarantee."""
        data = bytearray(serialize_tree(small_tree))
        header_end = data.index(b"data\n") + len(b"data\n")
        data[header_end + 4] ^= 0xFF  # first node's child bitmap
        try:
            deserialize_tree(bytes(data))
        except ValueError:
            pass  # structurally detected -- also acceptable
