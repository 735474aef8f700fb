"""Compact binary serialization of occupancy octrees.

The format mirrors the spirit of OctoMap's ``.ot`` files: a small ASCII
header (resolution, tree depth, node count) followed by a pre-order recursive
encoding of the tree where every node contributes its float log-odds value and
one byte whose bits flag which of its eight children exist.

The format is self-contained and endian-fixed (little endian), so a tree can be
written by one process and reloaded by another -- the HTTP export job ships a
session's map this way.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO

from repro.octomap.node import OcTreeNode
from repro.octomap.octree import OccupancyOcTree

__all__ = ["serialize_tree", "deserialize_tree"]

_MAGIC = b"# repro-octree v1\n"
_NODE_STRUCT = struct.Struct("<fB")  # log-odds float32, children bitmask


def serialize_tree(tree: OccupancyOcTree) -> bytes:
    """Serialise a tree to bytes (header + pre-order node records)."""
    buffer = io.BytesIO()
    _write_stream(tree, buffer)
    return buffer.getvalue()


def deserialize_tree(data: bytes) -> OccupancyOcTree:
    """Reconstruct a tree from bytes produced by :func:`serialize_tree`."""
    return _read_stream(io.BytesIO(data))


def _write_stream(tree: OccupancyOcTree, stream: BinaryIO) -> None:
    stream.write(_MAGIC)
    header = f"res {tree.resolution!r}\ndepth {tree.tree_depth}\nsize {tree.size()}\ndata\n"
    stream.write(header.encode("ascii"))
    if tree.root is not None:
        _write_node(tree.root, stream)


def _write_node(node: OcTreeNode, stream: BinaryIO) -> None:
    mask = 0
    for index in range(8):
        if node.child_exists(index):
            mask |= 1 << index
    stream.write(_NODE_STRUCT.pack(node.log_odds, mask))
    for index in range(8):
        child = node.child(index)
        if child is not None:
            _write_node(child, stream)


def _read_stream(stream: BinaryIO) -> OccupancyOcTree:
    magic = stream.readline()
    if magic != _MAGIC:
        raise ValueError("not a repro-octree file (bad magic line)")
    resolution = None
    depth = None
    declared_size = None
    while True:
        line = stream.readline()
        if not line:
            raise ValueError("unexpected end of file while reading the header")
        text = line.decode("ascii").strip()
        if text == "data":
            break
        field, _, value = text.partition(" ")
        if field == "res":
            resolution = float(value)
        elif field == "depth":
            depth = int(value)
        elif field == "size":
            declared_size = int(value)
        else:
            raise ValueError(f"unknown header field {field!r}")
    if resolution is None or depth is None or declared_size is None:
        raise ValueError("incomplete header: res, depth and size are all required")

    tree = OccupancyOcTree(resolution, tree_depth=depth)
    if declared_size == 0:
        return tree

    root, count = _read_node(stream)
    tree._root = root  # reconstructing internals is this module's job
    tree._num_nodes = count
    if count != declared_size:
        raise ValueError(
            f"node count mismatch: header declares {declared_size}, stream holds {count}"
        )
    if stream.read(1):
        raise ValueError("trailing bytes after the encoded tree")
    return tree


def _read_node(stream: BinaryIO):
    record = stream.read(_NODE_STRUCT.size)
    if len(record) != _NODE_STRUCT.size:
        raise ValueError("truncated node record")
    log_odds, mask = _NODE_STRUCT.unpack(record)
    node = OcTreeNode(log_odds)
    count = 1
    for index in range(8):
        if mask & (1 << index):
            child, child_count = _read_node(stream)
            node._children = node._children or [None] * 8
            node._children[index] = child
            count += child_count
    return node, count
