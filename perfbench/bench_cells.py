"""The benchmark's workloads: which Session cells run, and how they are checked.

Two workloads, both on the ``sequential`` backend in one process:

* ``trace-rssd`` -- the paper's full RSSD design under an MSR ``hm``
  shaped trace (``RSSD/classic/trace-hm/tiny``), the replay write chain
  that optimisation work targets first.
* ``attack-sweep`` -- every registry defense against the four paper
  attacks plus the evasive ones on ``office-edit``, through
  ``run_campaign``, followed by the CI-sized evasion grid through
  ``run_roc``; many short cells whose time goes to byte loops, detection
  and the sweep drivers.

Every seed a cell consumes derives from the benchmark's ``--seed``
through :func:`repro.campaign.seeding.derive_seed`.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import time
from typing import Callable, Dict, List, Optional

from repro.api import (
    CampaignGrid,
    CheckpointJournal,
    ResultCache,
    ScenarioSpec,
    Session,
    run_campaign,
    run_roc,
)
from repro.campaign import registries
from repro.campaign.seeding import derive_seed

from hostspeed import SpeedProbe

WORKLOADS = ("trace-rssd", "attack-sweep")

#: The seed the result digests in ``pins.json`` were generated with.
DEFAULT_SEED = 1

#: Replay length of one trace cell, in hours of original trace time.
TRACE_ACTIVITY_HOURS = 0.03
#: Trace cells per round.
TRACE_CELLS_PER_ROUND = 4

SWEEP_ATTACKS = list(registries.DEFAULT_ATTACKS) + list(registries.EVASIVE_ATTACKS)
#: Victim files per sweep cell (8 KiB each); sized so a run of 35 seconds
#: holds four sweep passes.
SWEEP_VICTIM_FILES = 4

#: Host seconds of one round of each workload, scaled to the reference
#: host's speed (see ``hostspeed``).  ``--seconds`` is turned into a fixed
#: number of rounds with these, so the work of a run depends only on its
#: arguments and ``wall_s`` measures speed rather than run length.
NOMINAL_ROUND_S = {"trace-rssd": 2.5, "attack-sweep": 8.2}


@dataclasses.dataclass
class Cell:
    """One timed cell: its host time, result digests and simulated scores."""

    key: str
    wall_s: float
    digests: Dict[str, str]
    #: ``CellResult.to_dict()``, or ``None`` for ROC cells (curves only).
    result: Optional[dict] = None
    error: Optional[str] = None
    check_failures: List[str] = dataclasses.field(default_factory=list)


def digest(payload: object) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- plans ------------------------------------------------------------------


def trace_spec(seed: int, index: int) -> ScenarioSpec:
    """Cell ``index`` of the ``trace-rssd`` workload."""
    return ScenarioSpec(
        defense="RSSD",
        attack="classic",
        workload="trace-hm",
        device="tiny",
        victim_files=4,
        file_size_bytes=8192,
        user_activity_hours=TRACE_ACTIVITY_HOURS,
        seed=derive_seed(seed, "trace", index),
    )


def sweep_grids(seed: int, index: int) -> tuple:
    """(campaign grid, ROC grid) of sweep pass ``index``."""
    campaign = CampaignGrid(
        defenses=list(registries.DEFENSES),
        attacks=list(SWEEP_ATTACKS),
        workloads=["office-edit"],
        device_configs=["tiny"],
        victim_files=SWEEP_VICTIM_FILES,
        seed=derive_seed(seed, "attack-sweep", index, "campaign"),
    )
    roc = dataclasses.replace(
        CampaignGrid.evasion_tiny(), seed=derive_seed(seed, "attack-sweep", index, "roc")
    )
    return campaign, roc


def round_count(workload: str, seconds: float) -> int:
    """How many rounds a run of about ``seconds`` executes."""
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def build_plan(workload: str, seed: int, rounds: int) -> list:
    """The rounds of a run; a round is a list of ``(index, unit)`` pairs.

    A unit is one trace cell's spec, or the (campaign, ROC) grid pair of
    one sweep pass.  Every unit of a run is distinct.
    """
    if workload == "attack-sweep":
        return [[(index, sweep_grids(seed, index))] for index in range(rounds)]
    if workload == "trace-rssd":
        per = TRACE_CELLS_PER_ROUND
        return [
            [(index, trace_spec(seed, index)) for index in range(r * per, (r + 1) * per)]
            for r in range(rounds)
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warm_up() -> None:
    """Run one short untimed cell, so lazy imports and caches are settled."""
    Session(
        ScenarioSpec(
            defense="RSSD",
            attack="classic",
            workload="trace-hm",
            device="tiny",
            victim_files=2,
            user_activity_hours=0.005,
        )
    ).run()


# -- correctness ------------------------------------------------------------


def result_checks(result: dict) -> List[str]:
    """Seed-independent checks on one cell's simulated results."""
    failures = []
    fraction = result["recovery_fraction"]
    if not (isinstance(fraction, float) and 0.0 <= fraction <= 1.0):
        failures.append(f"recovery_fraction {fraction!r} outside [0, 1]")
    for name in ("write_amplification", "mean_write_latency_us"):
        value = result[name]
        if not (math.isfinite(value) and value >= 0):
            failures.append(f"{name} {value!r} is not a finite non-negative number")
    if result["defense"] == "RSSD":
        if result["integrity_errors"]:
            failures.append(f"RSSD integrity errors: {result['integrity_errors']}")
        if result["remote_time_order_ok"] is not True:
            failures.append("RSSD remote tier arrival order not verified")
    return failures


def pin_failures(cell: Cell, pins: Optional[Dict[str, str]]) -> List[str]:
    """Digests of ``cell`` that differ from their pinned value."""
    if not pins:
        return []
    return [
        f"{key}: digest {value[:12]} != pinned {pins[key][:12]}"
        for key, value in cell.digests.items()
        if key in pins and pins[key] != value
    ]


def cell_failed(cell: Cell) -> bool:
    """A cell fails if it raised or any of its checks failed."""
    return cell.error is not None or bool(cell.check_failures)


def check_cells(cells: List[Cell], pins: Optional[Dict[str, str]]) -> None:
    """Fill each cell's ``check_failures`` from its result and the pins."""
    for cell in cells:
        if cell.result is not None:
            cell.check_failures.extend(result_checks(cell.result))
        cell.check_failures.extend(pin_failures(cell, pins))


def golden_campaign_matches(root: str) -> bool:
    """Whether ``run_campaign(CampaignGrid.tiny())`` reproduces the golden file."""
    path = os.path.join(root, "tests", "golden", "campaign_tiny.json")
    with open(path, "r", encoding="utf-8") as handle:
        stored = handle.read()
    return run_campaign(CampaignGrid.tiny(), backend="sequential").to_json() == stored


# -- execution --------------------------------------------------------------


def run_trace_cells(workload: str, plan: list, probe: Optional[SpeedProbe] = None) -> List[Cell]:
    """Run each spec as one Session; garbage is collected between cells.

    ``probe``, if given, may sample the host's speed before each cell,
    outside the timed region.
    """
    cells = []
    for index, spec in plan:
        key = f"{workload}/cell-{index}"
        gc.collect()
        if probe is not None:
            probe.maybe_sample()
        start = time.perf_counter()
        try:
            result = Session(spec).run().to_cell_result().to_dict()
        except Exception as error:  # a failed cell is counted, not fatal
            cells.append(Cell(key, time.perf_counter() - start, {}, error=repr(error)))
            continue
        wall = time.perf_counter() - start
        cells.append(Cell(key, wall, {key: digest(result)}, result=result))
    return cells


def _timed_sweep(
    driver: Callable,
    grid: CampaignGrid,
    prefix: str,
    workdir: str,
    name: str,
    probe: Optional[SpeedProbe] = None,
) -> tuple:
    """Run one sweep driver with a fresh cache and journal under ``workdir``.

    Returns ``(cells, wall_s)``.  A cell's host time is the gap between
    consecutive ``after_cell`` callbacks, so the driver's own per-cell
    work (cache lookups, journal fsync) is charged to the cells as users
    pay it; digests are computed after the driver returns.  A ``probe``
    sample taken in the callback is charged to no cell.
    """
    finished: list = []
    last = [0.0]

    def after_cell(index, spec, result) -> None:
        finished.append((spec.cell_key, time.perf_counter() - last[0], result))
        if probe is not None:
            probe.maybe_sample()
        last[0] = time.perf_counter()

    cache = ResultCache(os.path.join(workdir, "cache"))
    journal = CheckpointJournal(os.path.join(workdir, f"{name}.jsonl"))
    start = last[0] = time.perf_counter()
    error = None
    try:
        driver(grid, backend="sequential", cache=cache, journal=journal, after_cell=after_cell)
    except Exception as raised:  # the sweep's unfinished cells fail
        error = repr(raised)
    wall = time.perf_counter() - start
    cells = []
    for cell_key, gap, result in finished:
        key = f"{prefix}/{cell_key}"
        if isinstance(result, list):  # ROC: one curve list per cell
            digests = {f"{prefix}/{curve.curve_key}": digest(curve.to_dict()) for curve in result}
            cells.append(Cell(key, gap, digests))
        else:
            payload = result.to_dict()
            cells.append(Cell(key, gap, {key: digest(payload)}, result=payload))
    if error is not None:
        done = {cell_key for cell_key, _, _ in finished}
        cells.extend(
            Cell(f"{prefix}/{spec.cell_key}", 0.0, {}, error=error)
            for spec in grid.cells()
            if spec.cell_key not in done
        )
    return cells, wall


def run_sweep_passes(plan: list, workdir: str, probe: Optional[SpeedProbe] = None) -> tuple:
    """Run every (campaign, ROC) grid pair: ``(cells, wall_s)``."""
    cells: List[Cell] = []
    wall = 0.0
    for index, (campaign, roc) in plan:
        prefix = f"attack-sweep/pass-{index}"
        for driver, grid, kind in ((run_campaign, campaign, "campaign"), (run_roc, roc, "roc")):
            done, seconds = _timed_sweep(
                driver, grid, f"{prefix}/{kind}", workdir, f"{kind}-{index}", probe
            )
            cells += done
            wall += seconds
    return cells, wall


def warm_rerun(plan: list, workdir: str) -> tuple:
    """Re-run the campaign grids on the warm cache: (seconds, hit rate)."""
    start = time.perf_counter()
    hits = lookups = 0
    for _, (campaign, _) in plan:
        stats = run_campaign(campaign, cache=ResultCache(os.path.join(workdir, "cache"))).cache_stats
        hits += stats.hits
        lookups += stats.hits + stats.misses
    return time.perf_counter() - start, hits / lookups if lookups else 0.0


def run_cells(
    workload: str, plan: list, workdir: str, probe: Optional[SpeedProbe] = None
) -> tuple:
    """Execute ``(index, unit)`` pairs of a :func:`build_plan` plan: ``(cells, wall_s)``."""
    if workload == "attack-sweep":
        return run_sweep_passes(plan, workdir, probe)
    cells = run_trace_cells(workload, plan, probe)
    return cells, sum(cell.wall_s for cell in cells)


def run_rounds(workload: str, plan: list, workdir: str, probe: SpeedProbe) -> list:
    """Run every round of ``plan``: a ``(cells, scale)`` pair per round.

    ``probe`` samples the host's speed before each round and between its
    cells; ``scale`` turns the round's host seconds into reference-host
    seconds.  Each round has a directory of its own, so every sweep pass
    starts on an empty cache and journal, as users' sweeps do.
    """
    spans = []
    for number, units in enumerate(plan):
        probe.sample()
        start = time.perf_counter()
        cells, _ = run_cells(workload, units, os.path.join(workdir, f"round-{number}"), probe)
        spans.append((cells, start, time.perf_counter()))
    probe.sample()
    return [(cells, probe.scale(start, end)) for cells, start, end in spans]
