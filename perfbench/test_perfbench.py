"""Smoke tests of the benchmark's own code, at tiny sizes.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import tracing
import workloads


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build("wide_focal", 3) != workloads.build("wide_focal", 4)
    assert workloads.build("moments_random", 3) != workloads.build("moments_random", 4)
    with pytest.raises(ValueError):
        workloads.build("no_such_workload", 0)


def test_wide_focal_model_shares_hulls_on_the_lattice():
    model = workloads.build("wide_focal", 11).model
    hulls = model.hulls()
    assert len(model.focal) == 32 and len(set(hulls)) == 8
    for parts, mass in model.focal:
        assert mass > 0.0
        assert all((2 * x).is_integer() and abs(x) <= model.bound for p in parts for x in p)
    props = workloads.build("wide_focal", 11).input_properties()
    assert props["input.repeated_hull_share"] == 0.75


def test_random_models_have_the_criterion_shape():
    wl = workloads.build("moments_random", 5)
    assert len(wl.models) == workloads.RANDOM_MODELS
    for model in wl.models[:50]:
        assert 2 <= len(model.focal) <= 50
        assert all(1 <= len(parts) <= 3 for parts, _ in model.focal)
        assert math.isclose(sum(m for _, m in model.focal), 1.0)
        assert all(-5.0 <= x <= 5.0 < model.bound for parts, _ in model.focal
                   for p in parts for x in p)


def test_reference_moments_of_the_bernoulli_model():
    ref = workloads.BERNOULLI.reference_moments()
    assert ref["lower_mean"] == pytest.approx(0.3, abs=1e-15)
    assert ref["upper_mean"] == pytest.approx(0.7, abs=1e-15)
    assert ref["lower_sd"] == pytest.approx(math.sqrt(0.21), abs=1e-15)
    assert ref["rho"] == pytest.approx(3.0 / 7.0, abs=1e-15)


def test_generated_plans_parse_as_planned(tmp_path):
    modelio = pytest.importorskip("beliefclt.modelio")
    for name in ("verify_default", "dense_grid", "wide_focal"):
        wl = workloads.build(name, 2)
        (tmp_path / "m.txt").write_text(wl.model.text())
        plan = modelio.parse_plan(wl.plan_text("m.txt"), base_dir=tmp_path)
        assert plan.n_values == wl.n_values and plan.reps == wl.reps
        assert plan.seed == 2 and len(plan.model.focal) == len(wl.model.focal)
        assert plan.alphas_for(wl.n_values[0]) == wl.alphas
        assert plan.pairs_for(wl.n_values[0]) == wl.pairs
    assert len(workloads.build("dense_grid", 0).pairs) == 231


def test_self_time_subtracts_the_union_of_children():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 3.0, 0], ["b", 2.0, 5.0, 0], ["c", 6.0, 7.0, 0],
             ["d", 6.5, 6.75, 3]]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.75, 0.25])
    table = tracing.layer_table(spans)
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4 and tracer.call("inner", inner, 0) == 1
    names_parents = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names_parents == [("outer", -1), ("inner", 0), ("inner", -1), ("inner", 2)]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_probe_arithmetic():
    wl = workloads.build("verify_default", 1)
    spans = [["cli.main", 0.0, 2.25, -1], ["montecarlo.estimate", 0.0, 2.0, 0],
             ["probe.serial", 3.0, 6.0, -1], ["probe.draw", 6.0, 8.5, -1]]
    for start, cost in ((9.0, 0.05), (9.1, 0.07), (9.2, 0.06)):
        spans.append(["probe.pool_start.default", start, start + cost, -1])
        spans.append(["probe.pool_start.serial", start, start + 0.01, -1])
    traced = {"spans": spans, "probes": {"route_gap_max": 0.0, "block_size": 16384}}
    m = run.layer_metrics(wl, traced, untraced_main_s=2.0, report=None, workers=2)
    assert m["montecarlo.tally_s"] == pytest.approx(0.5)
    assert m["montecarlo.parallel_efficiency"] == pytest.approx(0.75)
    assert m["montecarlo.pool_start_s"] == pytest.approx(0.05)
    assert m["cli.self_s"] == pytest.approx(0.25)
    assert m["trace.overhead_s"] == pytest.approx(0.25)
    assert m["montecarlo.blocks"] == 6 * 62
    assert m["montecarlo.coordinates"] == 10**6 * sum(workloads.DEFAULT_N_VALUES)
    assert m["montecarlo.counts_bytes_computed"] == 10**6 * 6 * 4 * 8
    assert set(m) == set(run.PER_LAYER)


def _report_csv(path: Path, flip_pass: bool) -> None:
    lines = ["experiment,n,alpha1,alpha2,theory,empirical,deviation,se,pass"]
    reps, emp = 100, 0.5
    se = math.sqrt(emp * (1 - emp) / reps)
    for kind, theory in (("one_sided_lower", 0.5), ("one_sided_upper", 0.5)):
        dev = abs(emp - theory)
        passed = (dev <= 3 * se + run.SLACK / 4.0) != flip_pass
        lines.append(f"{kind},16,0,nan,{theory!r},{emp!r},{dev!r},{se!r},"
                     f"{'true' if passed else 'false'}")
    path.write_text("\n".join(lines) + "\n")


def test_report_check_catches_an_inconsistent_row(tmp_path):
    wl = workloads.Workload("tiny", "verify-one-sided", (workloads.BERNOULLI,), 0,
                            n_values=(16,), reps=100, alphas=(0.0,), pairs=())
    _report_csv(tmp_path / "good.csv", flip_pass=False)
    good = run.check_report(tmp_path / "good.csv", wl)
    assert good["problems"] == [] and good["rows"] == 2 and good["rows_failed"] == 0
    _report_csv(tmp_path / "bad.csv", flip_pass=True)
    assert run.check_report(tmp_path / "bad.csv", wl)["problems"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
