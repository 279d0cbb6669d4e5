"""Session-cell benchmark: host time of the scenario cells users run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace-rssd --seed 1 --seconds 35 --trace 0

``--workload`` is ``trace-rssd`` or ``attack-sweep`` (see ``bench_cells``).
The seed and ``--seconds`` fix the cells a run executes, in rounds
(``bench_cells.build_plan``), so the work of a run depends only on its
arguments.  With ``--trace 0`` the run
times every cell, scales each round's host times to a reference host
speed measured during that round (``hostspeed``) and prints the
end-to-end metrics.  With ``--trace 1`` it runs the same cells once
untraced and once with spans around each layer's public calls, checks
that both produce identical result digests, and prints the per-layer
metrics.  Spans are written to ``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from hostspeed import REFERENCE_S, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Below this many cells no percentile has ten cells beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print 'ready' and exit (how setup_s is sampled)",
    )
    return parser.parse_args(argv)


def tail(times):
    """(value, percentile) of the highest percentile with ten cells beyond it.

    With too few cells for such a percentile to lie in the upper half,
    the slowest cell is reported as the 100th percentile.
    """
    ordered = sorted(times)
    below = len(ordered) - TAIL_BEYOND
    if below < len(ordered) / 2:
        return ordered[-1], 100
    return ordered[below - 1], 100 * below // len(ordered)


def sample_setup(args) -> float:
    """Seconds from a fresh interpreter's start until it is ready to time cells."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up sample failed (exit {code}, said {line!r})")
    return ready


def end_to_end(rounds, setup_s):
    """Every end-to-end metric of an untraced run.

    ``rounds`` holds each round's cells and the factor that turns its host
    seconds into reference-host seconds (see ``hostspeed``).  Every host
    time is reported scaled; the caller scales ``setup_s`` the same way.
    """
    from bench_cells import cell_failed

    cells = [cell for executed, _ in rounds for cell in executed]
    scaled = {cell.key: cell.wall_s * scale for executed, scale in rounds for cell in executed}
    times = list(scaled.values())
    tail_s, tail_pct = tail(times)
    scored = [cell for cell in cells if cell.result is not None]
    results = [cell.result for cell in scored]
    host_commands = sum(result["host_commands"] for result in results)
    scored_wall = sum(scaled[cell.key] for cell in scored)
    detected = [r["detection_latency_us"] for r in results if r["detected"]]
    attacked = [r["recovery_fraction"] for r in results if r["attack"] != "none"]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    for cell in cells:
        print(f"cell {cell.key} {cell.wall_s:.6f} s unscaled")
    scales = [scale for _, scale in rounds]
    print(
        f"cells: {len(cells)} in {len(rounds)} rounds; "
        f"cell_s.tail is p{tail_pct} of {len(times)} cells"
    )
    print(
        f"host speed: rounds scaled by {min(scales):.4f} to {max(scales):.4f} "
        f"(reference loop {1000 * REFERENCE_S:.1f} ms); "
        f"unscaled wall_s {sum(cell.wall_s for cell in cells):.6f} s"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "cell_s.p50": (statistics.median(times), "s"),
        "cell_s.tail": (tail_s, "s"),
        "host_ops_per_s": (host_commands / scored_wall if scored_wall else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cells_ok_frac": (sum(not cell_failed(c) for c in cells) / len(cells), "frac"),
        "sim.write_amplification": (mean([r["write_amplification"] for r in results]), "ratio"),
        "sim.write_latency_us": (mean([r["mean_write_latency_us"] for r in results]), "sim_us"),
        "sim.recovery_fraction": (mean(attacked), "frac"),
        "sim.detection_latency_us": (statistics.median(detected) if detected else 0.0, "sim_us"),
    }
    return metrics


def traced_run(workload, plan, workdir, spans_path):
    """Run each unit of ``plan`` untraced and then traced, alternately.

    Returns (untraced cells, traced cells, per-layer metrics).  Pairing
    the runs unit by unit keeps slow drift in host speed out of
    ``trace.overhead_frac``.
    """
    from bench_cells import run_cells, warm_rerun
    from bench_layers import install, layer_metrics, phase_seconds
    from bench_trace import Tracer

    tracer = Tracer()
    counts = Counter()
    cells, traced_cells = [], []
    wall = traced_wall = 0.0
    for unit in plan:
        done, seconds = run_cells(workload, [unit], os.path.join(workdir, "untraced"))
        cells += done
        wall += seconds
        install(tracer, counts)
        try:
            done, seconds = run_cells(workload, [unit], os.path.join(workdir, "traced"))
        finally:
            tracer.uninstall()
        traced_cells += done
        traced_wall += seconds
    install(tracer, counts)
    try:
        rerun_s, hit_rate = (
            warm_rerun(plan, os.path.join(workdir, "traced"))
            if workload == "attack-sweep"
            else (0.0, 0.0)
        )
    finally:
        tracer.uninstall()
    untraced_digests = {cell.key: cell.digests for cell in cells}
    for cell in traced_cells:
        if untraced_digests.get(cell.key) != cell.digests:
            cell.check_failures.append("traced result digests differ from the untraced run")
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer, counts).items()}
    metrics["campaign.cache.warm_hit_rate"] = (hit_rate, "frac")
    metrics["campaign.warm_rerun_s"] = (rerun_s, "s")
    metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "frac")
    phase_sum = sum(phase_seconds(tracer).values())
    metrics["session.phase_sum_frac"] = (phase_sum / wall - 1.0, "frac")
    tracer.write(spans_path)
    return cells, traced_cells, metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_host_page")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_cells

    if args.workload not in bench_cells.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    rounds = bench_cells.round_count(args.workload, args.seconds)
    plan = bench_cells.build_plan(args.workload, args.seed, rounds)
    bench_cells.warm_up()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    pins = None
    if args.seed == bench_cells.DEFAULT_SEED:
        with open(PINS, "r", encoding="utf-8") as handle:
            pins = json.load(handle)["digests"]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            units = [unit for units in plan for unit in units]
            cells, traced_cells, metrics = traced_run(args.workload, units, workdir, spans_path)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
            every_cell = cells + traced_cells
        else:
            probe = SpeedProbe()
            setups = []
            for _ in range(SETUP_SAMPLES):
                probe.sample()
                setups.append(sample_setup(args))
            probe.sample()
            setup_s = statistics.median(setups) * probe.scale()
            done = bench_cells.run_rounds(args.workload, plan, workdir, probe)
            every_cell = [cell for cells, _ in done for cell in cells]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench_cells.check_cells(every_cell, pins)
    failed = [cell for cell in every_cell if bench_cells.cell_failed(cell)]
    for cell in failed:
        print(f"FAILED {cell.key}: {cell.error or '; '.join(cell.check_failures)}")
    golden_ok = bench_cells.golden_campaign_matches(ROOT)
    if not golden_ok:
        print("FAILED run_campaign(CampaignGrid.tiny()) differs from tests/golden/campaign_tiny.json")
    if not args.trace:
        metrics = end_to_end(done, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": golden_ok and not failed,
                "attempted": len(every_cell),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
