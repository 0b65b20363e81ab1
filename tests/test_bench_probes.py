"""The benchmark's traced runs call the estimator through the probes of
``perfbench/child.py``; a change to the estimator's API that would break
them fails here, on a plan small enough for tier-1."""

import importlib
from pathlib import Path

from beliefclt import MODEL_REGISTRY, SimPlan
from beliefclt.splittree import BLOCK_SIZE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_estimator_probes_run_with_a_tracer(monkeypatch):
    # mixed at n = 16 (tabled) and 16384 (split tree)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child, tracing = (importlib.import_module(name) for name in ("child", "tracing"))
    plan = SimPlan(MODEL_REGISTRY["mixed"], n_values=(16, 16384), reps=2000, seed=3)
    tracer = tracing.Tracer()
    probes = child._estimator_probes(tracer, plan)
    assert probes == {"route_gap_max": 0.0, "block_size": BLOCK_SIZE}
    spans = [name for name, *_ in tracer.spans]
    assert spans[:3] == ["moments.integration", "probe.serial", "probe.draw"]
    assert sorted(spans[3:]) == sorted(["probe.pool_start.default",
                                        "probe.pool_start.serial"] * child.POOL_PROBE_REPEATS)
    assert all(end >= start for _, start, end, _ in tracer.spans)
