"""Quick self-tests of the benchmark's arithmetic and correctness gate.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import numpy as np

from bench_cells import Cell, build_plan, cell_failed, check_cells, digest, result_checks
from bench_trace import NO_PARENT, Tracer, self_time_by_name
from hostspeed import REFERENCE_S, WINDOW_S, SpeedProbe
from run import tail


def test_self_time_subtracts_only_direct_children():
    # a [0, 10] has children b [1, 4] and c [5, 6]; d [2, 3] is b's child.
    names = ["a", "b", "c", "d"]
    name_id = np.array([0, 1, 3, 2])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([NO_PARENT, 0, 1, 0])
    assert self_time_by_name(names, name_id, start, end, parent) == {
        "a": 6.0,
        "b": 2.0,
        "c": 1.0,
        "d": 1.0,
    }


def test_self_times_of_nested_same_name_spans_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_root = tracer.wrap("root", lambda: [traced_leaf() for _ in range(3)])
    traced_root()
    assert list(tracer.parent) == [NO_PARENT, 0, 0, 0]
    total = sum(tracer.self_times().values())
    assert abs(total - (tracer.end[0] - tracer.start[0])) < 1e-9


class _Widget:
    def work(self):
        return 1


def test_uninstall_restores_patched_methods():
    original = _Widget.__dict__["work"]
    tracer = Tracer()
    tracer.patch_method(_Widget, "work", "widget.work")
    assert _Widget().work() == 1 and len(tracer.start) == 1
    tracer.uninstall()
    assert _Widget.__dict__["work"] is original


def _result(**overrides):
    result = {
        "defense": "RSSD",
        "recovery_fraction": 1.0,
        "write_amplification": 1.3,
        "mean_write_latency_us": 36.0,
        "integrity_errors": [],
        "remote_time_order_ok": True,
    }
    result.update(overrides)
    return result


def test_perturbed_digest_counts_as_a_failed_cell():
    result = _result()
    good = digest(result)
    bad = digest(_result(recovery_fraction=0.5))
    pinned = Cell("w/cell-0", 1.0, {"w/cell-0": bad}, result=result)
    matching = Cell("w/cell-1", 1.0, {"w/cell-1": good}, result=result)
    unpinned = Cell("w/cell-2", 1.0, {"w/cell-2": bad}, result=result)
    check_cells([pinned, matching, unpinned], {"w/cell-0": good, "w/cell-1": good})
    assert [cell_failed(cell) for cell in (pinned, matching, unpinned)] == [True, False, False]


def test_rssd_integrity_errors_fail_for_any_seed():
    assert result_checks(_result()) == []
    assert result_checks(_result(integrity_errors=["chain broken"]))
    assert result_checks(_result(remote_time_order_ok=False))
    assert result_checks(_result(defense="LocalSSD", remote_time_order_ok=None)) == []


def test_tail_keeps_ten_cells_beyond_it():
    times = [float(i) for i in range(1, 101)]
    value, percentile = tail(times)
    assert (value, percentile) == (90.0, 90)
    assert sum(t > value for t in times) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_speed_scale_uses_samples_near_the_interval():
    probe = SpeedProbe()
    probe.samples = [(0.0, REFERENCE_S), (10.0, 2 * REFERENCE_S), (20.0, 4 * REFERENCE_S)]
    assert probe.scale(9.0, 11.0) == 0.5
    assert probe.scale(10.0 + WINDOW_S, 10.0 + WINDOW_S) == 0.5
    assert probe.scale() == 0.5
    assert probe.scale(19.0, 30.0) == 0.25


def test_every_unit_of_a_plan_is_distinct():
    plan = build_plan("trace-rssd", 1, 3)
    specs = [spec for units in plan for _, spec in units]
    assert len(plan) == 3 and len({spec.seed for spec in specs}) == len(specs)
    sweep = build_plan("attack-sweep", 1, 2)
    assert sweep[0][0][1][0].seed != sweep[1][0][1][0].seed
