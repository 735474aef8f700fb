"""Bench: the Fig. 5 TreeMem entry (pointer / child tags / probability).

Fig. 5 of the paper defines the TreeMem entry: a 32-bit children pointer,
16 bits of 2-bit child status tags and a 16-bit fixed-point log-odds value.
The model keeps those three fields in typed arrays per bank; this benchmark
measures how fast a bank decodes them into the :class:`TreeMemEntry` view
that map export and verification read, and regenerates the figure's
two-voxel, depth-3 worked example as a table showing where each node lands.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.core.accelerator import OMUAccelerator
from repro.core.config import OMUConfig
from repro.core.treemem import TreeMemBank
from repro.octomap.keys import KeyConverter

ENTRIES = 2000


def _filled_bank() -> TreeMemBank:
    bank = TreeMemBank(0, ENTRIES)
    bank.reserve(ENTRIES)
    for index in range(ENTRIES):
        bank.valid[index] = 1
        bank.pointers[index] = index
        bank.tags[index] = 0b01 << (2 * (index % 8))
        bank.probabilities[index] = (index % 4096) - 2048
    return bank


def _decode_all(bank: TreeMemBank) -> int:
    checksum = 0
    for address in range(ENTRIES):
        checksum ^= bank.read(address).pointer
    return checksum


def test_fig5_entry_decode(benchmark, save_result):
    benchmark(_decode_all, _filled_bank())

    # Regenerate the worked example: two voxels inserted into a depth-3 tree,
    # one PE per first-level branch.
    config = OMUConfig(resolution_m=0.2, tree_depth=3)
    converter = KeyConverter(0.2, 3)
    accelerator = OMUAccelerator(config)
    voxels = [(0.3, 0.1, 0.1), (-0.3, 0.5, 0.1)]
    keys = np.array([converter.coord_to_key(x, y, z).as_tuple() for x, y, z in voxels])
    accelerator.apply_update_batch(keys, np.ones(len(keys), dtype=bool))
    rows = []
    for pe in accelerator.pes:
        for node in pe.export_nodes():
            entry_kind = "leaf" if node.is_leaf else "inner"
            rows.append((pe.pe_id, "/".join(map(str, node.path)), entry_kind, node.probability_raw))
    rendered = render_table(
        "Fig. 5 worked example: two voxel updates in a depth-3 tree",
        ("PE (branch)", "path from root", "node kind", "probability (raw Q5.10)"),
        rows,
    )
    save_result("figure5", rendered)
    assert len(rows) >= 6, "two depth-3 paths produce at least six stored nodes"
