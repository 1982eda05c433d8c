import numpy as np
import pytest

from perfbench import tracer

CLI, FIELDS, CLASSICAL, QUANTUM, INTERFEROMETRY, DISPERSION = range(6)


def nested_spans():
    """An interferometry call with a same-layer child and a quantum child that
    calls back into interferometry, recorded in end order as the tracer does."""
    rows = [  # span, parent, layer, start, end, done (after the work counter), failed
        (1, 0, INTERFEROMETRY, 10, 40, 40, 0),
        (3, 2, INTERFEROMETRY, 55, 60, 61, 1),
        (2, 0, QUANTUM, 50, 70, 70, 0),
        (0, -1, INTERFEROMETRY, 0, 100, 100, 0),
    ]
    columns = np.array(rows, dtype=np.int64).T
    return dict(zip(("span", "parent", "layer", "start_ns", "end_ns", "done_ns", "failed"), columns))


def test_self_time_subtracts_direct_children_only():
    own = tracer.self_times(nested_spans())
    assert own.tolist() == [30, 5, 14, 50]  # span 2 also loses span 3's 1 ns work counter
    assert own.sum() + 1 == 100  # self times and tracer time partition the root span


def test_self_time_removes_tracer_cost_of_each_span_and_direct_child():
    cost = tracer.SpanCost(outside_ns=2.0, inside_ns=1.0)
    own = tracer.self_times(nested_spans(), cost)
    assert own.tolist() == [30 - 1, 5 - 1, 14 - 2 - 1, 50 - 2 * 2 - 1]
    around = tracer.caller_costs(nested_spans(), cost)
    assert own.sum() + around[:3].sum() + 4 * 1 == 100  # the root's outside cost falls outside it


def test_layer_metrics_sum_self_time_per_layer():
    metrics, removed = tracer.layer_metrics(nested_spans(), n_ops=2, traced_wall_ns=200)
    assert metrics["interferometry.calls"] == 3
    assert metrics["interferometry.self_ms_per_op"] == pytest.approx(85 / 1e6 / 2)
    assert metrics["interferometry.self_share"] == pytest.approx(85 / 199)  # less the 1 ns counter
    assert metrics["interferometry.failed"] == 1
    assert metrics["quantum.self_share"] == pytest.approx(14 / 199)
    assert metrics["quantum.failed"] == 0
    assert metrics["cli.calls"] == 0
    assert removed["quantum"] == pytest.approx(1 / 1e6 / 2)


def test_layer_metrics_report_the_tracer_cost_removed():
    cost = tracer.SpanCost(outside_ns=2.0, inside_ns=1.0)
    metrics, removed = tracer.layer_metrics(nested_spans(), n_ops=1, traced_wall_ns=200, cost=cost)
    assert metrics["interferometry.self_ms_per_op"] == pytest.approx((30 + 5 + 46 - 3) / 1e6)
    assert removed["interferometry"] == pytest.approx((4 + 3) / 1e6)
    assert removed["quantum"] == pytest.approx((3 + 1) / 1e6)
    assert metrics["quantum.self_share"] == pytest.approx(11 / (200 - 4 * 2 - 1 - 4 * 1))


def test_calibrated_span_cost_is_positive_and_small():
    import spinphase

    cost = tracer.Tracer(spinphase).span_cost
    assert 0.0 < cost.outside_ns < 100_000.0
    assert 0.0 <= cost.inside_ns < 100_000.0


def test_traced_cli_sweep_records_nested_spans_and_counts(tmp_path):
    import spinphase
    import spinphase.cli as cli

    original = cli.compute_interference
    out = tmp_path / "sweep.csv"
    with tracer.Tracer(spinphase) as tr:
        assert tr.uncovered() == []
        assert cli.compute_interference is not original
        tr.op = 0
        argv = ["--mode", "sweep", "--grid-theta", "0.5:1.0:2", "--grid-phid=-0.5:0.5:3", "--out", str(out)]
        assert cli.main(argv) == 0
    assert cli.compute_interference is original
    assert spinphase.compute_interference is original

    spans = tr.spans()
    names = [tr.names[f] for f in spans["function"]]
    roots = [name for name, parent in zip(names, spans["parent"]) if parent == -1]
    assert roots == ["cli.main"]
    assert names.count("interferometry.compute_interference") == 6
    root = spans["parent"] == -1
    own = tracer.self_times(spans, tr.span_cost)
    around = tracer.caller_costs(spans, tr.span_cost)
    accounted = own.sum() + around[~root].sum() + tr.span_cost.inside_ns * len(own)
    assert accounted == pytest.approx((spans["end_ns"][root] - spans["start_ns"][root]).sum())
    assert tr.counts["cli.rows_written"] == 6
    assert tr.counts["cli.bytes_written"] == out.stat().st_size
    # phi_D = 0 has no arc; the other four cells sum an arc plus its geodesic closure
    assert tr.counts["interferometry.polygon_vertices"] == 4 * (2 * 2048 - 2)


def test_rk4_step_count_matches_the_integrator(tmp_path):
    import spinphase as sp

    cfg = sp.FieldConfig(charges=[sp.LineCharge(0.0, 0.0, 0.5)])
    path = sp.PlanarPath.circle((0.0, 0.0), 1.0, 8)
    kin = sp.KinematicPath(path, np.where(np.arange(8) % 2 == 0, 0.7, 1.9))
    with tracer.Tracer(sp) as tr:
        sp.integrate_precession_ac(sp.ClassicalDipole(theta=0.4), cfg, kin, 0.013)
    names = [tr.names[f] for f in tr.spans()["function"]]
    eval_a_calls = names.count("fields.eval_A")
    assert tr.counts["classical.rk4_steps"] == eval_a_calls // 4  # four rate evaluations per step
    assert tr.counts["fields.field_points"] == eval_a_calls  # one point, one charge each


def test_coverage_check_reports_references_that_bypass_spans(monkeypatch):
    import spinphase
    import spinphase.interferometry as itf

    original = itf.solid_angle_geodesic_closed
    with tracer.Tracer(spinphase) as tr:
        monkeypatch.setattr(spinphase.cli, "_SOLVERS", {"solid": original}, raising=False)
        monkeypatch.setattr(spinphase.quantum, "_solid_angle", original, raising=False)
        found = tr.uncovered()
    assert "spinphase.cli._SOLVERS['solid'] -> interferometry.solid_angle_geodesic_closed" in found
    assert "spinphase.quantum._solid_angle -> interferometry.solid_angle_geodesic_closed" in found


def test_wrappers_are_removed_when_the_traced_code_raises():
    import spinphase

    original = spinphase.eval_E
    with pytest.raises(spinphase.SingularPoint):
        with tracer.Tracer(spinphase) as tr:
            spinphase.eval_E(spinphase.FieldConfig(charges=[spinphase.LineCharge(0.0, 0.0, 1.0)]), [0.0, 0.0])
    assert spinphase.eval_E is original
    assert spinphase.fields.eval_E is original
    assert tracer.layer_metrics(tr.spans(), 1, 1)[0]["fields.failed"] == 1
