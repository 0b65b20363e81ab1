"""One fresh-interpreter run of a workload; launched by run.py.

Usage: python3 child.py SPEC_JSON RESULT_JSON

SPEC_JSON names the mode and the generated inputs:

- ``setup``: import the package and load the plan, then record versions;
  the warm-up run that fills the bytecode and file caches.
- ``verify``: time the import plus plan load (``setup_s``), then run
  ``beliefclt.cli.main`` on the verify subcommand (``main_s``).
- ``moments``: time the import (``setup_s``), then the library loop over
  the model texts: parse, both moment routes, the Gaussian targets.

With ``"trace": true`` the run records spans around the package's public
functions (see tracing.py) and, for ``verify``, afterwards runs the
estimator probes.  Peak memory is read before any probe runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import sys
import types
from time import perf_counter

from tracing import Tracer

MOMENT_FIELDS = ("lower_mean", "upper_mean", "lower_sd", "upper_sd",
                 "cross_moment", "rho_prime", "rho")
REFERENCE_FIELDS = ("lower_mean", "upper_mean", "lower_sd", "upper_sd", "rho")
SAMPLE_TARGET_MODELS = 20
POOL_PROBE_REPEATS = 3


def _peak_rss_kb() -> dict[str, int]:
    """Peak RSS of this process and of its largest (already joined) worker.

    This process's own figure comes from VmHWM where Linux provides it: its
    ru_maxrss would also count the launching process, which it inherits
    across exec.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    self_kb = int(line.split()[1])
    except OSError:
        pass
    return {"self_kb": self_kb,
            "workers_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def _route_gap(a, b) -> float:
    """Largest field difference between two moment results; NaN in both
    counts as agreement, NaN in one as an infinite gap."""
    gap = 0.0
    for f in MOMENT_FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        if math.isnan(x) and math.isnan(y):
            continue
        d = abs(x - y)
        gap = max(gap, math.inf if math.isnan(d) else d)
    return gap


def _environment() -> dict:
    import numpy
    import scipy

    import beliefclt
    from beliefclt import montecarlo

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "beliefclt": getattr(beliefclt, "__version__", "unknown"),
            "beliefclt_file": beliefclt.__file__, "blas": blas_name,
            "workers": montecarlo.resolve_workers()}


def _trace_cli(tracer: Tracer) -> None:
    """Spans around every public call cli.main makes, in the caller's names."""
    from beliefclt import cli, harness, modelio

    for namespace, attr, span in (
        (cli, "load_plan", "modelio.load_plan"),
        (modelio, "parse_model", "modelio.parse_model"),
        (cli, "moments_by_enumeration", "moments.enumeration"),
        (cli, "estimate_events", "montecarlo.estimate"),
        (cli, "one_sided_report", "harness.report"),
        (cli, "two_sided_report", "harness.report"),
        (harness, "std_normal_cdf", "gauss.target"),
        (harness, "two_sided_limit", "gauss.target"),
        (harness, "fit_rate", "harness.fit_rate"),
        (cli, "report_rows", "modelio.report_rows"),
        (cli, "emit_csv", "modelio.csv_write"),
        (modelio, "csv_text", "modelio.csv_text"),
    ):
        tracer.patch(namespace, attr, span)


def _estimator_probes(tracer: Tracer, plan) -> dict:
    """Outside-in estimator probes through the public estimate_events.

    serial (1 worker), draw (same plan with empty event grids, 1 worker) and
    pool start (a reps = 1 plan at the default worker count and at 1 worker).
    """
    from beliefclt import moments, montecarlo

    enum = moments.moments_by_enumeration(plan.model)
    integ = tracer.call("moments.integration", moments.moments_by_integration,
                        plan.model)
    estimate = montecarlo.estimate_events
    tracer.call("probe.serial", estimate, plan, enum, workers=1)
    empty = dataclasses.replace(plan, alpha_one_sided=(), alpha_two_sided=())
    tracer.call("probe.draw", estimate, empty, enum, workers=1)
    tiny = dataclasses.replace(plan, reps=1)
    for _ in range(POOL_PROBE_REPEATS):
        tracer.call("probe.pool_start.default", estimate, tiny, enum)
        tracer.call("probe.pool_start.serial", estimate, tiny, enum, workers=1)
    return {"route_gap_max": _route_gap(enum, integ),
            "block_size": getattr(montecarlo, "BLOCK_SIZE", None)}


def run_setup(spec: dict) -> dict:
    from beliefclt import modelio

    if spec.get("plan"):
        modelio.load_plan(spec["plan"])
    return {"environment": _environment()}


def run_verify(spec: dict, tracer: Tracer | None) -> dict:
    t0 = perf_counter()
    from beliefclt import cli, modelio

    plan = modelio.load_plan(spec["plan"])
    setup_s = perf_counter() - t0

    argv = [spec["subcommand"], spec["plan"], "--out-dir", spec["out_dir"]]
    main = cli.main
    if tracer is not None:
        _trace_cli(tracer)
        main = tracer.wrap(cli.main, "cli.main")
    t1 = perf_counter()
    exit_code = main(argv)
    main_s = perf_counter() - t1
    result = {"setup_s": setup_s, "main_s": main_s, "exit_code": exit_code,
              "peak_rss": _peak_rss_kb()}
    if tracer is not None:
        result["probes"] = _estimator_probes(tracer, plan)
    return result


def _moments_loop(api, texts, alphas, pairs) -> list[tuple]:
    """parse -> both routes -> one- and two-sided targets, per model text.

    Returns (enumeration, integration, targets, error) per model; a model
    whose step raises keeps what it computed before and names the exception.
    """
    out = []
    for text in texts:
        enum = integ = None
        try:
            model = api.parse_model(text)
            enum = api.enumeration(model, allow_degenerate=True)
            integ = api.integration(model, allow_degenerate=True)
            targets = [api.std_normal_cdf(a) for a in alphas]
            targets += [api.two_sided_limit(a1, a2, enum.rho) for a1, a2 in pairs]
            out.append((enum, integ, targets, None))
        except Exception as exc:  # one failed model must not end the loop
            out.append((enum, integ, None, type(exc).__name__))
    return out


def run_moments(spec: dict, tracer: Tracer | None) -> dict:
    with open(spec["models_file"]) as fh:
        texts = json.load(fh)
    alphas = spec["alphas"]
    pairs = [tuple(p) for p in spec["pairs"]]

    t0 = perf_counter()
    import beliefclt.cli  # noqa: F401  (the same import a CLI user pays)
    setup_s = perf_counter() - t0

    from beliefclt import gauss, modelio, moments

    api = types.SimpleNamespace(
        parse_model=modelio.parse_model,
        enumeration=moments.moments_by_enumeration,
        integration=moments.moments_by_integration,
        std_normal_cdf=gauss.std_normal_cdf,
        two_sided_limit=gauss.two_sided_limit,
    )
    loop = _moments_loop
    if tracer is not None:
        for attr, span in (("parse_model", "modelio.parse_model"),
                           ("enumeration", "moments.enumeration"),
                           ("integration", "moments.integration"),
                           ("std_normal_cdf", "gauss.target"),
                           ("two_sided_limit", "gauss.target")):
            tracer.patch(api, attr, span)
        loop = tracer.wrap(_moments_loop, "library.loop")
    t1 = perf_counter()
    records = loop(api, texts, alphas, pairs)
    main_s = perf_counter() - t1
    peak = _peak_rss_kb()

    digest = hashlib.sha256()
    moments_out, gaps, failures, sample_targets = [], [], [], []
    for i, (enum, integ, targets, error) in enumerate(records):
        values = None if enum is None else {f: getattr(enum, f) for f in REFERENCE_FIELDS}
        gap = None if integ is None else _route_gap(enum, integ)
        moments_out.append(values)
        gaps.append(gap)
        digest.update(repr((values, gap, targets, error)).encode())
        if error is not None:
            failures.append([i, error])
        elif len(sample_targets) < SAMPLE_TARGET_MODELS and abs(enum.rho) < 0.99:
            sample_targets.append([i, targets])
    return {"setup_s": setup_s, "main_s": main_s, "peak_rss": peak,
            "models": len(records), "failures": failures,
            "route_gaps": gaps,
            "moments": moments_out, "sample_targets": sample_targets,
            "digest": digest.hexdigest()}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec.get("trace") else None
    if spec["mode"] == "setup":
        result = run_setup(spec)
    elif spec["mode"] == "verify":
        result = run_verify(spec, tracer)
    else:
        result = run_moments(spec, tracer)
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
