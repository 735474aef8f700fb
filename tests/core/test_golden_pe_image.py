"""Golden SRAM images: what the update kernel leaves in memory, pinned byte for byte.

``golden_pe_stats.json`` pins what the kernel *charges*; this file pins what it
*stores*.  ``golden_pe_image.json`` holds, per PE, the SHA-256 of every bank's
``valid`` / ``pointers`` / ``tags`` / ``probabilities`` array (stale words of
freed rows included; the arrays are sized to the map, so each is hashed padded
to the bank's nominal size with never-written entries) and the prune
manager's row stack, for the three golden
scenarios and for twenty seeded streams on shallow trees, where a thousand
updates saturate, prune, re-expand and recycle rows at every level.  It was
generated by the kernel that recomputed each parent from its children row at
every level it climbed (``PYTHONPATH=src:tests python
tests/core/test_golden_pe_image.py`` rewrites it); any host-side shortcut in
the upward pass must reproduce it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Dict, List

from repro.core import OMUConfig
from repro.core.pe import ProcessingElement
from test_fused_kernel_properties import stream_columns
from test_golden_pe_stats import (
    DISTINCT_TIMING,
    corridor_batch_accelerators,
    corridor_scan_accelerator,
)

import oracle_pe

GOLDEN = Path(__file__).with_name("golden_pe_image.json")
HIT_RATIOS = (0.0, 0.1, 0.5, 0.9, 1.0)
UPDATES = 1200


#: What an address the bank's arrays do not hold yet reads as, per field.
UNWRITTEN = {"valid": b"\x00", "pointers": b"\xff" * 4, "tags": b"\x00" * 2, "probabilities": b"\x00" * 2}


def image_digest(pe: ProcessingElement) -> Dict[str, object]:
    """Hashes of the whole nominal image: the arrays, padded to ``num_entries`` as never written."""
    digest: Dict[str, object] = {
        field: [
            hashlib.sha256(
                bytes(getattr(bank, field)) + unwritten * (bank.num_entries - bank.rows)
            ).hexdigest()
            for bank in pe.memory.banks
        ]
        for field, unwritten in UNWRITTEN.items()
    }
    digest["allocator_stack"] = pe.allocator.stack[: pe.allocator.stack_depth].tolist()
    digest["prunes"] = pe.counters.prunes
    digest["expansions"] = pe.counters.expansions
    return digest


def shallow_stream(depth: int, hit_ratio: float, ordered: bool, seed: int) -> Dict[str, object]:
    """Updates over a 4x4x4 cube plus eight scattered voxels, all on one PE.

    Sorted means sorted per quarter, as a flush of four scans arrives: within
    a quarter a voxel's updates are consecutive (misses, then hits) and
    neighbours share all but the last level, and each quarter revisits what
    the one before pruned.  As drawn, consecutive paths share next to nothing.
    """
    rng = random.Random(seed)
    side = 1 << depth
    voxels = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    voxels += [tuple(rng.randrange(side) for _ in range(3)) for _ in range(8)]
    stream = [(*rng.choice(voxels), rng.random() < hit_ratio) for _ in range(UPDATES)]
    if ordered:
        quarters = (stream[start : start + UPDATES // 4] for start in range(0, UPDATES, UPDATES // 4))
        stream = [update for quarter in quarters for update in sorted(quarter)]
    config, paths, occupied = stream_columns(depth, stream)
    pe = ProcessingElement(0, config)
    oracle_pe.kernel_update_paths(pe, paths, occupied)
    return image_digest(pe)


def collect() -> Dict[str, object]:
    config = OMUConfig(resolution_m=0.2)
    scenarios = {
        "one_shard": corridor_batch_accelerators(config, 1)[0],
        "two_shards_distinct_timing": corridor_batch_accelerators(
            dataclasses.replace(config, timing=DISTINCT_TIMING), 2
        )[0],
        "process_scan": [corridor_scan_accelerator(config)[0]],
    }
    images: Dict[str, object] = {
        name: [[image_digest(pe) for pe in accelerator.pes] for accelerator in accelerators]
        for name, accelerators in scenarios.items()
    }
    cases = itertools.product(HIT_RATIOS, (True, False), range(2))
    for index, (hit_ratio, ordered, _repeat) in enumerate(cases):
        depth = 3 + index % 3
        name = f"depth{depth}_hits{hit_ratio}_{'sorted' if ordered else 'shuffled'}_seed{index}"
        images[name] = shallow_stream(depth, hit_ratio, ordered, seed=index)
    return images


def test_sram_images_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(collect()))
    assert actual.keys() == golden.keys()
    for scenario in golden:
        assert actual[scenario] == golden[scenario], scenario


def test_the_golden_streams_prune_expand_and_leave_rows_on_the_stack():
    """The pinned streams must exercise what a shortcut could get wrong."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    shallow: List[dict] = [image for name, image in golden.items() if name.startswith("depth")]
    assert len(shallow) == 20
    assert sum(image["prunes"] > 0 for image in shallow) >= 12
    assert sum(image["expansions"] > 0 for image in shallow) >= 12
    assert sum(bool(image["allocator_stack"]) for image in shallow) >= 6


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
