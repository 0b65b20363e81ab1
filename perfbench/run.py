"""Benchmark of the beliefclt package: end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs in workloads.py; why each exists in BENCHMARK.json):
``verify_default``, ``dense_grid``, ``wide_focal`` and ``moments_random``.
``moments_random`` is not listed in BENCHMARK.json: its pure-Python loop
is the most exposed to host speed drift, and its run-to-run spread came
too close to the bound.  Run it by name to see the moment and target
layers at scale, and the models that fail.

``--trace 0`` repeats the workload in fresh interpreters for S seconds, one
after another, and reports medians of the end-to-end metrics.  ``--trace 1``
runs passes for S seconds; a pass is one untraced and one traced fresh run,
the traced one followed by the estimator probes.  It reports per-layer
medians over the passes, prints call counts, total and self time per span,
and writes every span to ``.perfbench_out/trace_<workload>_<id>.json``.

Every run checks the outputs: the verify report CSV row by row against an
independent computation of its targets, tolerances and pass flags, the
exit status against the report, and byte-identical CSVs within the run;
for ``moments_random`` the route agreement (1e-10), the moments against an
independent reference, and a sample of the targets.  Models whose targets
raise count as failed operations.  The last line of standard output is one
JSON object.  The benchmark sets no BLAS or OpenMP thread variable; it
removes BELIEFCLT_WORKERS from its children's environment so that the
CLI's default worker count applies.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import uuid
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
OUT_DIR_NAME = ".perfbench_out"
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKERS_VAR = "BELIEFCLT_WORKERS"

SLACK = 1.0          # plan default; row tolerance = 3*se + slack/sqrt(n)
ROUTE_TOL = 1e-10    # acceptance criterion 1
REFERENCE_TOL = 1e-9  # program vs this benchmark's own reference values
GROSS_TOL = 1e-6     # beyond rounding: a wrong answer, not a failed model

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "modelio.load_plan_s": "s",
    "modelio.parse_model_s": "s",
    "modelio.models_parsed": "count",
    "modelio.csv_write_s": "s",
    "modelio.csv_bytes": "bytes",
    "moments.enumeration_s": "s",
    "moments.integration_s": "s",
    "moments.models": "count",
    "moments.route_gap_max": "abs",
    "gauss.target_s": "s",
    "gauss.target_calls": "count",
    "gauss.us_per_call": "us",
    "montecarlo.estimate_s": "s",
    "montecarlo.serial_s": "s",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.draw_s": "s",
    "montecarlo.tally_s": "s",
    "montecarlo.pool_start_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.coordinates": "count",
    "montecarlo.blocks": "count",
    "montecarlo.event_tests": "count",
    "montecarlo.counts_bytes_computed": "bytes",
    "input.focal": "count",
    "input.distinct_minmax": "count",
    "input.repeated_hull_share": "ratio",
    "harness.report_s": "s",
    "harness.fit_rate_s": "s",
    "harness.rows": "count",
    "harness.rows_failed": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    """The checkout holds no package source to benchmark."""


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    returncode: int
    stderr: str
    result: dict | None


@dataclass
class Op:
    """Outcome of one checked operation (a verify command or one model)."""

    attempted: int
    failed: int
    problems: list[str]
    digest: str = ""
    report: dict | None = None
    errors: Counter = field(default_factory=Counter)  # failure cause -> count


def phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bvn_reference(points: list[tuple[float, float]], rho: float) -> list[float]:
    """P(X <= x, Y <= y) for standard normals with correlation rho (scipy)."""
    from scipy.stats import multivariate_normal

    values = multivariate_normal.cdf(points, mean=[0.0, 0.0],
                                     cov=[[1.0, rho], [rho, 1.0]],
                                     abseps=1e-12, releps=1e-12)
    return [float(v) for v in list(values if len(points) > 1 else [values])]


def check_report(path: Path, wl: workloads.Workload) -> dict:
    """Check a verify report CSV row by row; return its summary."""
    data = path.read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    problems: list[str] = []
    seen = set()
    two_sided = []  # (row theory, -alpha1, alpha2)
    margins = []
    for r in rows:
        kind, n, a1 = r["experiment"], int(r["n"]), float(r["alpha1"])
        a2 = float(r["alpha2"]) if kind == "two_sided" else None
        theory, emp = float(r["theory"]), float(r["empirical"])
        dev, se = float(r["deviation"]), float(r["se"])
        seen.add((kind, n, a1, a2))
        if kind == "one_sided_lower":
            expect = 1.0 - phi(a1)
        elif kind == "one_sided_upper":
            expect = phi(a1)
        else:
            expect = None
            two_sided.append((theory, -a1, a2))
        if expect is not None and abs(theory - expect) > REFERENCE_TOL:
            problems.append(f"{kind} n={n} a={a1}: theory {theory} != {expect}")
        tol = 3.0 * se + SLACK / math.sqrt(n)
        if not 0.0 <= emp <= 1.0 or abs(dev - abs(emp - theory)) > 1e-15 \
                or abs(se - math.sqrt(emp * (1.0 - emp) / wl.reps)) > 1e-15 \
                or (r["pass"] == "true") != (dev <= tol):
            problems.append(f"{kind} n={n} a=({a1}, {a2}): inconsistent row")
        margins.append(tol - dev)
    if seen != wl.report_events() or len(rows) != len(seen):
        problems.append(f"report rows do not match the plan's events "
                        f"({len(rows)} rows, {len(wl.report_events())} events)")
    if two_sided:
        rho = wl.references[0]["rho"]
        ref = bvn_reference([(x, y) for _, x, y in two_sided], -rho)
        worst = max(abs(t - v) for (t, _, _), v in zip(two_sided, ref))
        if worst > REFERENCE_TOL:
            problems.append(f"two-sided theory off the reference by {worst:.3e}")
    return {"file": path.name, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data), "rows": len(rows),
            "rows_failed": sum(r["pass"] != "true" for r in rows),
            "worst_margin": min(margins, default=math.nan), "problems": problems}


def check_verify(run: ChildRun, wl: workloads.Workload, out_dir: Path) -> Op:
    if run.result is None:
        return Op(1, 1, [f"child exited {run.returncode}: {run.stderr[-2000:]}"])
    csvs = sorted(out_dir.glob("*.csv"))
    if len(csvs) != 1:
        return Op(1, 1, [f"expected one report CSV, found {len(csvs)}"])
    report = check_report(csvs[0], wl)
    exit_code = run.result["exit_code"]
    problems = list(report["problems"])
    if (exit_code == 0) != (report["rows_failed"] == 0):
        problems.append(f"exit status {exit_code} disagrees with the report "
                        f"({report['rows_failed']} rows failed)")
    return Op(1, int(exit_code != 0), problems, report["sha256"], report)


def check_moments(run: ChildRun, wl: workloads.Workload) -> Op:
    """Grade the library loop model by model.

    A model fails when a step raises, when the two routes disagree beyond
    1e-10, or when its moments miss the reference by more than
    REFERENCE_TOL (rounding in nearly degenerate models).  A miss beyond
    GROSS_TOL, or a wrong target, is an incorrect output instead.
    """
    if run.result is None:
        return Op(len(wl.models), len(wl.models),
                  [f"child exited {run.returncode}: {run.stderr[-2000:]}"])
    res = run.result
    problems: list[str] = []
    if res["models"] != len(wl.models):
        problems.append(f"{res['models']} of {len(wl.models)} models returned")
    causes: dict[int, str] = {i: name for i, name in res["failures"]}
    for i, gap in enumerate(res["route_gaps"]):
        if gap is not None and gap > ROUTE_TOL:
            causes.setdefault(i, f"route gap > {ROUTE_TOL:g}")
    refs = wl.references
    for i, values in enumerate(res["moments"]):
        if values is None or i in causes:
            continue
        miss = max(0.0 if math.isnan(v) and math.isnan(refs[i][f]) else abs(v - refs[i][f])
                   for f, v in values.items())
        if not miss <= GROSS_TOL:
            problems.append(f"model {i}: moments {values} miss the reference {refs[i]}")
        elif miss > REFERENCE_TOL:
            causes[i] = f"moments off reference > {REFERENCE_TOL:g}"
    for i, targets in res["sample_targets"]:
        if i in causes:
            continue
        expect = [phi(a) for a in wl.alphas] + bvn_reference(
            [(-a1, a2) for a1, a2 in wl.pairs], -refs[i]["rho"])
        worst = max(abs(t - v) for t, v in zip(targets, expect))
        if len(targets) != len(expect) or worst > REFERENCE_TOL:
            problems.append(f"model {i}: targets off the reference by {worst:.3e}")
    return Op(res["models"], len(causes), problems[:20], res["digest"],
              errors=Counter(causes.values()))


class Bench:
    """One benchmark run: inputs, child processes and their checks."""

    def __init__(self, root: Path, wl: workloads.Workload):
        src = root / "src"
        if not (src / "beliefclt" / "cli.py").is_file():
            raise ProgramMissing(f"no package source at {src / 'beliefclt'}")
        self.root, self.src, self.wl = root, src, wl
        out = root / OUT_DIR_NAME
        self.work = out / f"work-{uuid.uuid4().hex[:12]}"
        self.work.mkdir(parents=True)
        self.trace_dir = out
        self.env = dict(os.environ)
        self.workers_var_found = self.env.pop(WORKERS_VAR, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._children = 0
        self.spec = self._write_inputs()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _write_inputs(self) -> dict:
        wl = self.wl
        if wl.subcommand is None:
            models_file = self.work / "models.json"
            models_file.write_text(json.dumps([m.text() for m in wl.models]))
            return {"mode": "moments", "models_file": str(models_file),
                    "alphas": list(wl.alphas), "pairs": [list(p) for p in wl.pairs]}
        (self.work / "model.txt").write_text(wl.model.text())
        plan = self.work / "workload.plan"
        plan.write_text(wl.plan_text("model.txt"))
        return {"mode": "verify", "subcommand": wl.subcommand, "plan": str(plan)}

    def child(self, spec: dict) -> ChildRun:
        """Run child.py once in a fresh interpreter and wait for it."""
        self._children += 1
        tag = self.work / f"child{self._children}"
        spec_path, result_path = tag.with_suffix(".spec.json"), tag.with_suffix(".result.json")
        spec_path.write_text(json.dumps(spec))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path), str(result_path)],
                                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err = f"timed out after {CHILD_TIMEOUT_S:g} s\n{err}"
        wall = perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result = None
        if proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        return ChildRun(wall, cpu, proc.returncode, err, result)

    def environment(self) -> dict:
        run = self.child({**self.spec, "mode": "setup"})
        if run.result is None:
            raise RuntimeError(f"warm-up run failed ({run.returncode}): {run.stderr[-2000:]}")
        env = run.result["environment"]
        package = Path(env["beliefclt_file"]).resolve()
        if not package.is_relative_to(self.src.resolve()):
            raise ProgramMissing(f"beliefclt imported from {package}, not from {self.src}")
        env["nproc"] = os.cpu_count()
        env["thread_vars"] = {v: os.environ.get(v, "unset") for v in THREAD_VARS}
        env[WORKERS_VAR] = f"{self.workers_var_found or 'unset'} (removed for the runs)"
        return env

    def op(self, trace: bool = False) -> tuple[ChildRun, Op]:
        spec = dict(self.spec, trace=trace)
        if self.wl.subcommand is None:
            run = self.child(spec)
            return run, check_moments(run, self.wl)
        out_dir = self.work / f"out{self._children + 1}"
        spec["out_dir"] = str(out_dir)
        run = self.child(spec)
        return run, check_verify(run, self.wl, out_dir)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_units(wl: workloads.Workload) -> dict[str, str]:
    """END_TO_END; the library loop runs no trials and reports models_per_s."""
    if wl.subcommand is not None:
        return END_TO_END
    return {"models_per_s" if k == "trials_per_s" else k: u for k, u in END_TO_END.items()}


def end_to_end_sample(run: ChildRun, wl: workloads.Workload) -> dict:
    res = run.result
    rss = res["peak_rss"]
    if wl.subcommand is None:
        rate = {"models_per_s": len(wl.models) / res["main_s"]}
    else:
        rate = {"trials_per_s": wl.reps * len(wl.n_values) / res["main_s"]}
    return {"wall_s": run.wall_s, "setup_s": res["setup_s"], **rate, "cpu_s": run.cpu_s,
            "peak_rss_mb": (rss["self_kb"] + rss["workers_kb"]) / 1024.0}


def layer_metrics(wl: workloads.Workload, traced: dict, untraced_main_s: float,
                  report: dict | None, workers: int) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = traced["spans"]
    table = tracing.layer_table(spans)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def median_duration(name: str) -> float:
        d = [end - start for n, start, end, _ in spans if n == name]
        return statistics.median(d) if d else 0.0

    probes = traced.get("probes", {})
    estimate, serial, draw = total("montecarlo.estimate"), total("probe.serial"), total("probe.draw")
    target_calls = calls("gauss.target")
    if wl.subcommand is None:
        gaps = [g for g in traced["route_gaps"] if g is not None]
        route_gap = max(gaps, default=0.0)
    else:
        route_gap = probes["route_gap_max"]
    root = "cli.main" if wl.subcommand else "library.loop"
    m = {
        "modelio.load_plan_s": total("modelio.load_plan"),
        "modelio.parse_model_s": total("modelio.parse_model"),
        "modelio.models_parsed": calls("modelio.parse_model"),
        "modelio.csv_write_s": total("modelio.csv_write") + total("modelio.report_rows"),
        "modelio.csv_bytes": report["bytes"] if report else 0,
        "moments.enumeration_s": total("moments.enumeration"),
        "moments.integration_s": total("moments.integration"),
        "moments.models": calls("moments.enumeration"),
        "moments.route_gap_max": route_gap,
        "gauss.target_s": total("gauss.target"),
        "gauss.target_calls": target_calls,
        "gauss.us_per_call": 1e6 * total("gauss.target") / target_calls if target_calls else 0.0,
        "montecarlo.estimate_s": estimate,
        "montecarlo.serial_s": serial,
        "montecarlo.parallel_efficiency": serial / (workers * estimate) if estimate else 0.0,
        "montecarlo.draw_s": draw,
        "montecarlo.tally_s": serial - draw,
        "montecarlo.pool_start_s": median_duration("probe.pool_start.default")
        - median_duration("probe.pool_start.serial"),
        "harness.report_s": total("harness.report"),
        "harness.fit_rate_s": total("harness.fit_rate"),
        "harness.rows": report["rows"] if report else 0,
        "harness.rows_failed": report["rows_failed"] if report else 0,
        "cli.main_s": total("cli.main"),
        "cli.self_s": table.get("cli.main", {}).get("self_s", 0.0),
        "trace.overhead_s": total(root) - untraced_main_s,
    }
    m.update(wl.counts(probes.get("block_size") or 1 << 14))
    m.update(wl.input_properties())
    return m


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_environment(env: dict) -> None:
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in env.items() if k not in ("thread_vars", "beliefclt_file")))
    print("thread variables as found: "
          + " ".join(f"{k}={v}" for k, v in env["thread_vars"].items()))


def print_ops(ops: list[Op]) -> None:
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    print(f"operations: attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g}")
    errors = sum((o.errors for o in ops), Counter())
    if errors:
        print("failed models by cause: "
              + " ".join(f"{k}={v}" for k, v in errors.most_common()))
    reports = [o.report for o in ops if o.report]
    if reports:
        r = reports[0]
        print(f"output {r['file']}: sha256={r['sha256']} rows={r['rows']} "
              f"rows_failed={r['rows_failed']} worst_margin={r['worst_margin']:.6g}")
    for p in dict.fromkeys(p for o in ops for p in o.problems):
        print(f"problem: {p}")


def run_timed(bench: Bench, seconds: float) -> tuple[list[Op], dict]:
    samples, ops = [], []
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline:
        run, op = bench.op()
        ops.append(op)
        if run.result is not None:
            samples.append(end_to_end_sample(run, bench.wl))
    if not samples:
        raise RuntimeError("no run of the workload completed")
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}  unit   (n={len(samples)})")
    metrics = {}
    for name, unit in end_to_end_units(bench.wl).items():
        q1, med, q3 = quartiles([s[name] for s in samples])
        print(f"{name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}  {unit}")
        metrics[name] = {"value": med, "unit": unit}
    return ops, metrics


def run_traced(bench: Bench, seconds: float, env: dict,
               seed: int) -> tuple[list[Op], dict]:
    wl = bench.wl
    passes, ops, all_spans = [], [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        plain, plain_op = bench.op()
        traced, traced_op = bench.op(trace=True)
        ops += [plain_op, traced_op]
        if plain.result is None or traced.result is None:
            if not passes and perf_counter() >= deadline:
                break
            continue
        passes.append(layer_metrics(wl, traced.result, plain.result["main_s"],
                                    traced_op.report, env["workers"]))
        all_spans.append(traced.result["spans"])
    if not passes:
        raise RuntimeError("no traced pass of the workload completed")
    trace_id = uuid.uuid4().hex[:16]
    tables = [tracing.layer_table(s) for s in all_spans]
    print(f"trace {trace_id}: {len(passes)} passes; medians per span name")
    print(f"{'span':<28}{'calls':>8}{'total_s':>14}{'self_s':>14}")
    for name in tables[-1]:
        col = [t[name] for t in tables if name in t]
        print(f"{name:<28}{statistics.median(c['calls'] for c in col):>8g}"
              f"{statistics.median(c['total_s'] for c in col):>14.6g}"
              f"{statistics.median(c['self_s'] for c in col):>14.6g}")
    metrics = {}
    print(f"{'per-layer metric':<36}{'median':>14}  unit")
    for name, unit in PER_LAYER.items():
        value = statistics.median(p[name] for p in passes)
        if isinstance(value, float) and value.is_integer() and unit in ("count", "bytes"):
            value = int(value)
        print(f"{name:<36}{_fmt(value):>14}  {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.6g} s "
          f"(traced minus untraced in-process time of the workload)")
    path = bench.trace_dir / f"trace_{wl.name}_{trace_id}.json"
    path.write_text(json.dumps({
        "trace_id": trace_id, "workload": wl.name, "seed": seed,
        "environment": env, "span_fields": ["name", "start", "end", "parent"],
        "passes": [{"spans": s, "metrics": p} for s, p in zip(all_spans, passes)],
    }))
    print(f"spans written to {path.relative_to(bench.root)}")
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    try:
        bench = Bench(Path.cwd(), wl)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        env = bench.environment()
        print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print_environment(env)
        if args.trace:
            ops, metrics = run_traced(bench, args.seconds, env, args.seed)
        else:
            ops, metrics = run_timed(bench, args.seconds)
    except (ProgramMissing, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print_ops(ops)
    digests = {o.digest for o in ops if o.digest}
    if len(digests) > 1:
        print(f"problem: outputs differ between runs of one seed ({len(digests)} digests)")
    correct = len(digests) <= 1 and not any(o.problems for o in ops)
    print(json.dumps({"correct": correct,
                      "attempted": sum(o.attempted for o in ops),
                      "failed": sum(o.failed for o in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
