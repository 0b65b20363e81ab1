import argparse
import csv
import functools
import hashlib
import math
import subprocess
import sys

import pytest

from beliefclt import (MODEL_REGISTRY, BeliefModel, FocalElement, bvn_cdf, cli, montecarlo,
                       save_model, save_plan, SimPlan, bernoulli_model)
from beliefclt.cli import build_parser, main
from beliefclt.modelio import REPORT_SCHEMA, emit_csv

from _helpers import package_env

BERN = bernoulli_model(0.3, 0.7)


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "bern.model"
    save_model(BERN, p)
    return p


@pytest.fixture
def plan_file(tmp_path):
    plan = SimPlan(BERN, n_values=(16, 64), reps=5000, seed=11,
                   alpha_one_sided=(-1.0, 0.0, 1.0),
                   alpha_two_sided=((-1.0, 1.0), (0.0, 2.0)))
    save_plan(plan, tmp_path / "bern.plan", tmp_path / "bern.model")
    return tmp_path / "bern.plan"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestMoments:
    def test_csv_output(self, model_file, capsys):
        assert main(["moments", str(model_file)]) == 0
        out = capsys.readouterr().out
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:]}
        assert float(rows["lower_mean"][1]) == 0.3
        assert float(rows["rho"][1]) == pytest.approx(3 / 7, abs=1e-12)
        # both routes are exact, so they agree to the bit
        assert all(float(r[3]) == 0.0 for r in rows.values())

    def test_text_output(self, model_file, capsys):
        assert main(["moments", str(model_file)]) == 0
        csv_out = capsys.readouterr().out
        assert main(["moments", str(model_file), "--format", "text"]) == 0
        out, err = capsys.readouterr()
        assert out == csv_out.replace(",", "\t")
        assert "lower_mean\t0.29999999999999999\t" in out
        assert "max route delta: " in err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("M = 1.0\nbogus\n")
        assert main(["moments", str(bad)]) == 2
        assert "bad.model" in capsys.readouterr().err


class TestBvn:
    def test_value(self, capsys):
        assert main(["bvn", "0", "0", "0.5", "--format", "text"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "a\tb\trho\tvalue"
        got = float(row.split("\t")[3])
        assert got == pytest.approx(1 / 3, abs=1e-14)

    @pytest.mark.parametrize("a, b, rho", [
        ("0", "-inf", "0.5"), ("-1e-3", "0", "0.5"), ("-1e3", "0", "0.5"),
        ("-Infinity", "-.5", "-1E-1"), ("-1_000", "-0.", "-0.25"),
    ])
    def test_every_float_spelling_is_a_number(self, a, b, rho, capsys):
        assert main(["bvn", a, b, rho]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert [float(v) for v in row[:3]] == [float(a), float(b), float(rho)]
        assert float(row[3]) == bvn_cdf(float(a), float(b), float(rho))

    def test_csv(self, capsys):
        assert main(["bvn", "1", "-1", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a,b,rho,value"

    def test_option_it_does_not_read_is_a_usage_error(self, capsys):
        # -x stays an option, though bvn reads -1e3 and -inf as numbers
        for extra in (["--seed", "3"], ["-x"]):
            with pytest.raises(SystemExit) as exc:
                main(["bvn", "0", "0", "0.5", *extra])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err

    def test_bad_correlation_exit_code(self, capsys):
        assert main(["bvn", "0", "0", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["moments", "no_such.model"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_writes_csv(self, plan_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["simulate", str(plan_file), "--out-dir", str(out_dir)]) == 0
        files = list(out_dir.glob("simulate_*.csv"))
        assert len(files) == 1
        rows = read_csv(files[0])
        # 2 n-values x (3 lower + 3 upper + 2 two-sided)
        assert len(rows) == 16
        assert {r["event_kind"] for r in rows} == {
            "one_sided_lower", "one_sided_upper", "two_sided"}
        assert all(r["seed"] == "11" for r in rows)

    def test_seed_override_changes_run_id(self, plan_file, tmp_path):
        d1, d2, d3 = (tmp_path / s for s in ("a", "b", "c"))
        main(["simulate", str(plan_file), "--out-dir", str(d1)])
        main(["simulate", str(plan_file), "--out-dir", str(d2), "--seed", "99"])
        main(["simulate", str(plan_file), "--out-dir", str(d3)])
        (f1,), (f2,) = list(d1.glob("*.csv")), list(d2.glob("*.csv"))
        (f3,) = list(d3.glob("*.csv"))
        assert f1.name != f2.name
        assert f1.read_text() != f2.read_text()
        # same plan, same seed: bit-identical output
        assert f1.read_text() == f3.read_text()

    def test_reps_override(self, plan_file, tmp_path):
        out_dir = tmp_path / "r"
        main(["simulate", str(plan_file), "--out-dir", str(out_dir),
              "--reps", "100"])
        (f,) = out_dir.glob("*.csv")
        assert all(r["reps"] == "100" for r in read_csv(f))

    def test_config_logged(self, plan_file, tmp_path, caplog):
        with caplog.at_level("INFO", logger="beliefclt"):
            main(["simulate", str(plan_file), "--out-dir", str(tmp_path / "x")])
        joined = " ".join(rec.message for rec in caplog.records)
        assert "seed=11" in joined and "reps=5000" in joined
        assert "run_id=" in joined
        # three hulls: the windows hold every vector up to n = 32 and more,
        # comb(n + 2, 2), 153 at n = 16 and 2145 at n = 64
        assert "block_size=16384 table_max_vectors=131072 tabled_n=[16, 64]" in joined
        # the endpoints 0 and 1 put every hull sum on the integers
        assert "tabled_n=[16, 64] lattice_h=1 lattice_n=[16, 64]" in joined

    def test_lattice_n_names_the_n_of_exact_sums(self, tmp_path, caplog, monkeypatch):
        # the step 1e-18 makes the endpoint 1 the integer 10**18: n * 10**18
        # fits in one int64 limb at n = 8, not at n = 16; both n take exact
        # thresholds, and lattice_n names the n on one limb
        model = BeliefModel([(FocalElement([(0.0, 1.0)]), 0.5),
                             (FocalElement([(1e-18, 1e-18)]), 0.2),
                             (FocalElement([(0.0, 0.0)]), 0.3)], 1.0)
        plan = SimPlan(model, n_values=(8, 16), reps=100, seed=3,
                       alpha_one_sided=(0.0,), alpha_two_sided=())
        save_plan(plan, tmp_path / "p.plan", tmp_path / "p.model")
        monkeypatch.setenv("BELIEFCLT_WORKERS", "1")
        at, limbs = montecarlo._EventCells.at, {}

        def recording_at(self, law, n):
            sums_law, *rest = at(self, law, n)
            limbs[n] = sums_law.maxs.shape[1:]
            return (sums_law, *rest)

        monkeypatch.setattr(montecarlo._EventCells, "at", recording_at)
        with caplog.at_level("INFO", logger="beliefclt"):
            main(["simulate", str(tmp_path / "p.plan"), "--out-dir", str(tmp_path / "x")])
        joined = " ".join(rec.message for rec in caplog.records)
        assert "lattice_h=1/1000000000000000000 lattice_n=[8]" in joined
        assert limbs == {8: (), 16: (2, 1)}  # an endpoint (hi, lo) on two limbs

    def test_past_two_limbs_is_an_input_error(self, tmp_path, capsys):
        model = BeliefModel([(FocalElement([(1e-150, 1e-150)]), 0.5),
                             (FocalElement([(1e150, 1e150)]), 0.5)], 1e150)
        save_plan(SimPlan(model, n_values=(4,), reps=10), tmp_path / "p.plan",
                  tmp_path / "p.model")
        assert main(["simulate", str(tmp_path / "p.plan"), "--out-dir", str(tmp_path)]) == 2
        assert "past two int64 limbs" in capsys.readouterr().err

    def test_tabled_n_follows_the_table_size_rule(self, plan_file, tmp_path, caplog,
                                                  monkeypatch):
        # the estimate builds one cell law per tabled n, in this process,
        # so the builds show which n it drew from a table
        monkeypatch.setenv("BELIEFCLT_WORKERS", "1")
        cell_law, drawn = montecarlo._cell_law, []

        def recording_cell_law(law, n, *args):
            drawn.append(n)
            return cell_law(law, n, *args)

        monkeypatch.setattr(montecarlo, "_cell_law", recording_cell_law)
        for limit, tabled in ((153, "[16]"), (152, "[]")):
            monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", limit)
            caplog.clear()
            drawn.clear()
            with caplog.at_level("INFO", logger="beliefclt"):
                main(["simulate", str(plan_file), "--out-dir", str(tmp_path / "x")])
            joined = " ".join(rec.message for rec in caplog.records)
            assert f"table_max_vectors={limit} tabled_n={tabled}" in joined
            assert tabled == str(drawn)

    def test_run_id_and_tabled_decisions_are_computed_once(self, plan_file, tmp_path,
                                                           monkeypatch):
        # the config line and the estimate share one digest of the plan and
        # one count of each n's table sizes
        digest, sizes, calls = SimPlan.__dict__["_digest"].func, montecarlo._table_sizes, []

        def counted_digest(plan):
            calls.append("digest")
            return digest(plan)

        def counted_sizes(law, n, limit):
            calls.append(n)
            return sizes(law, n, limit)

        prop = functools.cached_property(counted_digest)
        prop.__set_name__(SimPlan, "_digest")
        monkeypatch.setattr(SimPlan, "_digest", prop)
        monkeypatch.setattr(montecarlo, "_table_sizes", counted_sizes)
        main(["simulate", str(plan_file), "--out-dir", str(tmp_path / "x")])
        assert calls == ["digest", 16, 64]


class TestVerify:
    def test_one_sided_passes(self, plan_file, tmp_path, capsys):
        code = main(["verify-one-sided", str(plan_file),
                     "--out-dir", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        (f,) = (tmp_path / "v").glob("report_one_sided_*.csv")
        rows = read_csv(f)
        assert len(rows) == 12
        assert all(r["pass"] == "true" for r in rows)

    def test_two_sided_report_format(self, plan_file, tmp_path, capsys):
        code = main(["verify-two-sided", str(plan_file),
                     "--out-dir", str(tmp_path / "w")])
        assert code == 0
        (f,) = (tmp_path / "w").glob("report_two_sided_*.csv")
        rows = read_csv(f)
        assert len(rows) == 4
        for r in rows:
            assert abs(float(r["deviation"])
                       - abs(float(r["empirical"]) - float(r["theory"]))) < 1e-15

    def test_failing_tolerance_gives_nonzero_exit(self, tmp_path, capsys):
        # slack 0 and enough reps that 3*SE sits below the n=16 gap to the
        # limit, so the tolerance check must fail
        plan = SimPlan(BERN, n_values=(16,), reps=100_000, seed=1,
                       alpha_one_sided=(0.0,), alpha_two_sided=(), slack=0.0)
        save_plan(plan, tmp_path / "hard.plan", tmp_path / "m.model")
        code = main(["verify-one-sided", str(tmp_path / "hard.plan"),
                     "--out-dir", str(tmp_path / "z")])
        out = capsys.readouterr().out
        assert code == 1
        assert "overall: FAIL" in out

    def test_empty_n_values_exit_code(self, model_file, tmp_path, capsys):
        # a bad plan value is one error line naming the key, not a traceback
        for line in ("n_values = []", "reps = [1]"):
            plan = tmp_path / "bad.plan"
            plan.write_text(f"model = {model_file.name}\n{line}\n")
            assert main(["verify-two-sided", str(plan), "--out-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            err = err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
            assert line.split()[0] in err[0]

    @pytest.mark.parametrize("command", ["moments", "verify-two-sided"])
    def test_huge_bound_exit_code(self, tmp_path, capsys, command):
        # 4*M*M overflows at M = 1e200, and with it the moment sums; the
        # model is refused at load with one error line naming the bound
        (tmp_path / "big.model").write_text(
            "M = 1e200\nfocal = { parts = [[0, 0]], mass = 0.5 }\n"
            "focal = { parts = [[0, 1]], mass = 0.5 }\n")
        (tmp_path / "big.plan").write_text("model = big.model\nreps = 100\n")
        argv = ([command, str(tmp_path / "big.model")] if command == "moments" else
                [command, str(tmp_path / "big.plan"), "--out-dir", str(tmp_path)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "big.model:1: bound" in err[0]

    @pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5", " 2"])
    def test_bad_workers_variable_exit_code(self, plan_file, tmp_path, capsys,
                                            monkeypatch, value):
        monkeypatch.setenv("BELIEFCLT_WORKERS", value)
        assert main(["simulate", str(plan_file), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: BELIEFCLT_WORKERS")

    def test_runs_clean_in_dev_mode_with_warnings_as_errors(self, tmp_path):
        # -X dev shows the DeprecationWarning that Python 3.12+ raises on a
        # fork of a process with threads; -W error makes any warning fail
        plan = SimPlan(MODEL_REGISTRY["mixed"], n_values=(16, 256), reps=40_000, seed=3)
        save_plan(plan, tmp_path / "mixed.plan", tmp_path / "mixed.model")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "beliefclt.cli",
             "verify-two-sided", str(tmp_path / "mixed.plan"), "--out-dir", str(tmp_path)],
            env=package_env(BELIEFCLT_WORKERS="2"), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestTextFormat:
    @pytest.mark.parametrize("command", ["simulate", "verify-one-sided", "special-cases"])
    def test_prints_the_csv_rows_tab_separated(self, command, plan_file, tmp_path, capsys):
        args = [command] + ([str(plan_file)] if command != "special-cases" else [])
        main(args + ["--out-dir", str(tmp_path / "csv")])
        (written,) = (tmp_path / "csv").glob("*.csv")
        capsys.readouterr()
        main(args + ["--format", "text", "--out-dir", str(tmp_path / "text")])
        out = capsys.readouterr().out
        assert out.startswith(written.read_text().replace(",", "\t"))
        assert not list((tmp_path / "text").glob("*"))

    def test_stdout_table_too(self, capsys):
        args = ["bvn", "1", "-1", "0.25"]
        main(args)
        csv_out = capsys.readouterr().out
        main(args + ["--format", "text"])
        assert capsys.readouterr().out == csv_out.replace(",", "\t")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_PLAN_FILE_DIGESTS = {
    "simulate": "ff2e14d5955e61a44d15f964c1a648270151fbbe5f4148589b4b50cf193524bf",
    "verify-one-sided": "3bde56c754ebbde721eee9fc07ffec79a036d583629c8036d36fe189612bfca2",
    "verify-two-sided": "d408a49184f0e3b8e7590e8a7a5bbea89c369d41a8aa0ee186c405345bfcea81",
}


class TestOutputBytes:
    """The CSV files are pinned byte for byte, at one and two workers: a
    change to a value or to how it is spelled fails here."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(_PLAN_FILE_DIGESTS))
    def test_plan_file_outputs(self, command, workers, plan_file, tmp_path, monkeypatch):
        monkeypatch.setenv("BELIEFCLT_WORKERS", workers)
        main([command, str(plan_file), "--out-dir", str(tmp_path / "out")])
        (written,) = (tmp_path / "out").glob("*.csv")
        assert _sha256(written) == _PLAN_FILE_DIGESTS[command]

    def test_special_cases_report(self, tmp_path):
        main(["special-cases", "--out-dir", str(tmp_path)])
        assert _sha256(tmp_path / "report_special_cases.csv") == (
            "c471dbb5a061ccbd8948dddae15710ede25c6eece1319fe5381b4ce1b6f88b2b")

    def test_moments_of_mixed(self, tmp_path, capsys):
        save_model(MODEL_REGISTRY["mixed"], tmp_path / "mixed.model")
        main(["moments", str(tmp_path / "mixed.model")])
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "8743be5ba7b0c134a28d0913b1b571297cb3bed24104a59af4c2551a61bf7c91")


class TestSpecialCasesAndRateFit:
    def test_special_cases_pass(self, tmp_path, capsys):
        code = main(["special-cases", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        rows = read_csv(tmp_path / "report_special_cases.csv")
        assert all(r["pass"] == "true" for r in rows)

    def test_rate_fit_reads_report(self, tmp_path, capsys):
        # synthetic two-sided report with an exact 1/sqrt(n) deviation
        rows = [("two_sided", n, -1.0, 1.0, 0.5, 0.5 + 2.0 / math.sqrt(n),
                 2.0 / math.sqrt(n), 1e-9, True) for n in (16, 64, 256, 1024)]
        emit_csv(rows, REPORT_SCHEMA, tmp_path / "rep.csv")
        code = main(["rate-fit", str(tmp_path / "rep.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "slope = -0.5" in out
        assert "K_hat = 2.0" in out

    def test_rate_fit_on_a_simulate_csv_is_an_input_error(self, plan_file, tmp_path, capsys):
        main(["simulate", str(plan_file), "--out-dir", str(tmp_path)])
        (sim_csv,) = tmp_path.glob("simulate_*.csv")
        capsys.readouterr()
        assert main(["rate-fit", str(sim_csv)]) == 2
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in "\n".join(err)
        assert errors[0].endswith("lacks the columns experiment, theory, empirical")

    def test_rate_fit_on_an_empty_file_is_an_input_error(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        assert main(["rate-fit", str(tmp_path / "empty.csv")]) == 2
        assert "lacks the columns experiment, n, alpha1" in capsys.readouterr().err

    def test_rate_fit_insufficient_signal(self, tmp_path, capsys):
        rows = [("two_sided", n, -1.0, 1.0, 0.5, 0.5001, 0.0001, 0.01, True)
                for n in (16, 64, 256)]
        emit_csv(rows, REPORT_SCHEMA, tmp_path / "rep.csv")
        code = main(["rate-fit", str(tmp_path / "rep.csv")])
        assert code == 0
        assert "insufficient signal" in capsys.readouterr().out


def test_every_handler_reads_every_argument_it_defines(model_file, plan_file, tmp_path,
                                                       monkeypatch):
    """Each subcommand defines only what its handler reads: an option no one
    reads would be accepted and then silently ignored."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defined = {name: {a.dest for a in p._actions if a.dest != "help"}
               for name, p in sub.choices.items()}
    emit_csv([("two_sided", n, -1.0, 1.0, 0.5, 0.5 + 2.0 / math.sqrt(n),
               2.0 / math.sqrt(n), 1e-9, True) for n in (16, 64, 256, 1024)],
             REPORT_SCHEMA, tmp_path / "rep.csv")
    argv = {
        "moments": [str(model_file)],
        "bvn": ["0", "0", "0.5"],
        "simulate": [str(plan_file)],
        "verify-one-sided": [str(plan_file)],
        "verify-two-sided": [str(plan_file)],
        "special-cases": [],
        "rate-fit": [str(tmp_path / "rep.csv")],
    }
    assert set(argv) == set(defined)

    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    parse = parser.parse_args

    def parse_recording(args):
        namespace = parse(args, namespace=Recording())
        reads.clear()  # argparse's own reads
        return namespace

    monkeypatch.setattr(parser, "parse_args", parse_recording)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    # the config line logs every argument; that is not a use of it
    monkeypatch.setattr(cli, "_log_config", lambda args, **resolved: None)
    monkeypatch.chdir(tmp_path)
    unread = {}
    for command, rest in argv.items():
        assert main([command, *rest]) in (0, 1), command
        unread[command] = defined[command] - reads
        reads.clear()
    assert unread == {command: set() for command in argv}
