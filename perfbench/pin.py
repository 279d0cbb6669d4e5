"""Regenerate ``pins.json``: the result digest of every cell at the default seed.

Run from the root of a checkout, only in a change that is meant to alter
simulated results (review the changed digests like any golden file)::

    python3 perfbench/pin.py

Digests cover every cell that a run of up to ``PIN_SECONDS`` seconds
executes; cells beyond that are checked only by the seed-independent
checks in ``bench_cells.result_checks``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_cells  # noqa: E402

PIN_SECONDS = 35


def main() -> int:
    digests = {}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=os.path.join(HERE, "out"))
    try:
        for workload in bench_cells.WORKLOADS:
            rounds = bench_cells.round_count(workload, PIN_SECONDS)
            plan = bench_cells.build_plan(workload, bench_cells.DEFAULT_SEED, rounds)
            cells = []
            for number, units in enumerate(plan):
                done, _ = bench_cells.run_cells(workload, units, os.path.join(workdir, str(number)))
                cells += done
            bench_cells.check_cells(cells, None)
            broken = [cell.key for cell in cells if bench_cells.cell_failed(cell)]
            if broken:
                print(f"refusing to pin failing cells: {broken}", file=sys.stderr)
                return 1
            for cell in cells:
                digests.update(cell.digests)
            print(f"{workload}: {len(cells)} cells pinned")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": bench_cells.DEFAULT_SEED, "digests": dict(sorted(digests.items()))},
            handle,
            indent=1,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
