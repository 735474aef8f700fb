"""Bench: the Fig. 6 prune address manager (pruned-pointer reuse).

Measures the allocate/free throughput of the stack-based manager and
regenerates a small table showing that reuse keeps the fresh-row high-water
mark flat while the map is repeatedly pruned and re-expanded.  The PE kernel
allocates and frees rows in C; the churn here runs the same discipline
through the Python oracle's ``allocate_row`` / ``free_row``
(``tests/core/oracle_pe.py``), on the manager's own state.
"""

from repro.analysis.tables import render_table
from repro.core.prune_manager import PruneAddressManager
from tests.core.oracle_pe import allocate_row, free_row


def _churn(manager: PruneAddressManager, iterations: int = 2000) -> None:
    live = []
    for index in range(iterations):
        if index % 3 != 2:
            live.append(allocate_row(manager))
        elif live:
            free_row(manager, live.pop())


def test_fig6_prune_address_manager(benchmark, save_result):
    benchmark.pedantic(
        lambda: _churn(PruneAddressManager(num_rows=4096)), rounds=3, iterations=1
    )

    manager = PruneAddressManager(num_rows=4096)
    _churn(manager, 3000)
    rendered = render_table(
        "Fig. 6: dynamic prune address manager behaviour (3000 allocate/free operations)",
        ("Metric", "Value"),
        [
            ("Allocations served", manager.allocations),
            ("Served from the prune stack", manager.reused_allocations),
            ("Reuse fraction", manager.reuse_fraction()),
            ("Fresh rows ever touched (high-water mark)", manager.rows_touched),
            ("Rows currently live", manager.rows_in_use),
            ("Peak stack depth", manager.peak_stack_depth),
        ],
    )
    save_result("figure6", rendered)
    assert manager.reused_allocations > 0
    assert manager.rows_touched < manager.allocations
