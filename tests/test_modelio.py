import hashlib
import math

import numpy as np
import pytest

from beliefclt import (
    MODEL_REGISTRY,
    ParseError,
    SimPlan,
    load_model,
    load_plan,
    save_model,
    save_plan,
)
from beliefclt.modelio import (
    REPORT_SCHEMA,
    SIM_SCHEMA,
    csv_text,
    emit_csv,
    model_text,
    parse_model,
    parse_plan,
    plan_text,
)

from _helpers import random_model

BERN = """\
# three-focal Bernoulli-type model
M = 1.0
focal = { parts = [[1, 1]], mass = 0.3 }
focal = { parts = [[0, 0]], mass = 0.3 }
focal = { parts = [[0, 1]], mass = 0.4 }
"""


class TestParseModel:
    def test_well_formed(self):
        model = parse_model(BERN)
        assert model.bound == 1.0
        assert [m for _, m in model.focal] == [0.3, 0.3, 0.4]

    def test_comments_and_blank_lines(self):
        text = "\n# leading comment\n\nM = 2.0   # trailing\n\nfocal = { parts = [[0, 1]], mass = 0.5 }\nfocal = { parts = [[1, 2]], mass = 0.5 }\n"
        model = parse_model(text)
        assert model.bound == 2.0

    def test_rounding_level_mass_gap_renormalized(self):
        text = ("M = 1.0\n"
                "focal = { parts = [[0, 0]], mass = 0.59999999 }\n"
                "focal = { parts = [[1, 1]], mass = 0.4 }\n")
        model = parse_model(text)
        total = math.fsum((0.59999999, 0.4))
        assert [m for _, m in model.focal] == [0.59999999 / total, 0.4 / total]
        assert abs(math.fsum(m for _, m in model.focal) - 1.0) <= 1e-12
        # the normalized model is kept as written from then on
        assert parse_model(model_text(model)) == model

    def test_large_mass_gap_is_an_error(self):
        text = ("M = 1.0\n"
                "focal = { parts = [[0, 0]], mass = 0.5 }\n"
                "focal = { parts = [[1, 1]], mass = 0.4 }\n")
        with pytest.raises(ParseError, match="mass sum") as exc:
            parse_model(text, path="gap.model")
        assert exc.value.path == "gap.model" and exc.value.line is None

    def test_bound_violation_reported(self):
        text = "M = 0.5\nfocal = { parts = [[0, 1]], mass = 1.0 }\n"
        with pytest.raises(ParseError, match="focal #0") as exc:
            parse_model(text)
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, line, field", [
        ("M = 1\nfocal = { parts = [[0, 1]], mass = 0.5 }\n", None, "mass sum"),
        ("M = 1\nfocal = { parts = [[0, 1]], mass = 1 }\n"
         "focal = { parts = [[0, 0]], mass = 0 }\n", 3, "mass #1"),
        ("M = 1\nfocal = { parts = [[0, 1]], mass = 1.5 }\n"
         "focal = { parts = [[0, 0]], mass = -0.5 }\n", 3, "mass #1"),
        ('M = 1\nfocal = { parts = [[0, 1]], mass = "1" }\n', 2, "mass #0"),
        ("M = 1\nfocal = { parts = [[0, 1]], mass = True }\n", 2, "mass #0"),
        ("M = 1\nfocal = { parts = [[0, 1]], mass = 0.5 }\n"
         "focal = { parts = [[0, 1]], mass = True }\n", 3, "mass #1"),
        ("M = 1\nfocal = { parts = [[0, 1]], mass = 1e999 }\n", None, "mass sum"),
        ("# a comment\n\nM = 1\nfocal = { parts = [[0, 1]], mass = 0.5 }\n"
         "focal = { parts = [[-2, 1]], mass = 0.5 }\n", 5, "focal #1"),
        ("M = 1.0\n", None, "focal"),
        ("M = 0\nfocal = { parts = [[0, 0]], mass = 1 }\n", 1, "bound"),
        ("focal = { parts = [[0, 1]], mass = 1 }\nM = -1\n", 2, "bound"),
        ("M = 1e999\nfocal = { parts = [[0, 1]], mass = 1 }\n", 1, "bound"),
        ("M = 1e200\nfocal = { parts = [[0, 1]], mass = 1 }\n", 1, "bound"),
        ("M = True\nfocal = { parts = [[0, 1]], mass = 1 }\n", 1, "bound"),
    ])
    def test_bad_values_name_the_file_and_line(self, text, line, field):
        with pytest.raises(ParseError) as exc:
            parse_model(text, path="bad.model")
        assert str(exc.value).startswith("bad.model:")
        assert exc.value.line == line
        assert str(exc.value).split(": ", 1)[1].startswith(field), str(exc.value)

    def test_touching_parts_merge_silently(self):
        text = "M = 2.0\nfocal = { parts = [[0, 1], [1, 2]], mass = 1.0 }\n"
        (f, _), = parse_model(text).focal
        assert f.parts == ((0.0, 2.0),)

    @pytest.mark.parametrize("line,expect_lineno", [
        ("M = 1.0\nnonsense line\n", 2),
        ("M = 1.0\nfocal = { parts = [[0, 1]] }\n", 2),
        ("M = 1.0\nfocal = { parts = [], mass = 1.0 }\n", 2),
        ("M = 1.0\nfocal = { parts = [[0, 1, 2]], mass = 1.0 }\n", 2),
        ("M = 1.0\nfocal = { parts = [[[0], 1]], mass = 1.0 }\n", 2),
        ("M = 1.0\nfocal = { parts = [[\"0\", \"1\"]], mass = 1.0 }\n", 2),
        ("M = 1.0\nM = 2.0\n", 2),
        ("M = oops\n", 1),
        ("weight = 1\n", 1),
    ])
    def test_parse_errors_carry_line_numbers(self, line, expect_lineno):
        with pytest.raises(ParseError) as exc:
            parse_model(line, path="bad.model")
        assert exc.value.line == expect_lineno
        assert exc.value.path == "bad.model"
        assert "bad.model" in str(exc.value)

    @pytest.mark.parametrize("text, line, message", [
        ("M = 1\nweight = 2\n", 2, "unknown key 'weight' (known: M, focal)"),
        ("M = 1\nM = 2\n", 2, "duplicate key 'M' (first on line 1)"),
        ("# c\n\nM = 1\nfocal\n", 4, "expected 'key = value', got 'focal'"),
        # the first bad line is the one reported
        ("M = 1\nbogus\nM = 2\nweight = 3\n", 2, "expected 'key = value'"),
        ("M = 1\nM = 2\nweight = 3\n", 2, "duplicate key 'M'"),
    ])
    def test_grammar_errors_are_worded_like_the_plan_parser(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_model(text, path="bad.model")
        assert str(exc.value).startswith(f"bad.model:{line}: {message}")

    def test_missing_bound(self):
        with pytest.raises(ParseError):
            parse_model("focal = { parts = [[0, 1]], mass = 1.0 }\n")

    def test_no_focal_elements(self):
        with pytest.raises(ParseError, match="focal"):
            parse_model("M = 1.0\n")


class TestRoundTrip:
    def test_model_file_round_trip(self, tmp_path, two_interval):
        p = tmp_path / "m.model"
        save_model(two_interval, p)
        loaded = load_model(p)
        assert loaded == two_interval
        # emit -> load -> emit is a fixed point
        save_model(loaded, tmp_path / "m2.model")
        assert (tmp_path / "m.model").read_text() == (tmp_path / "m2.model").read_text()

    def test_awkward_floats_round_trip(self, tmp_path):
        text = ("M = 3.0\n"
                "focal = { parts = [[0.1, 0.30000000000000004]], mass = 0.3333333333333333 }\n"
                "focal = { parts = [[-2.718281828459045, 2.2250738585072014]], mass = 0.6666666666666667 }\n")
        p = tmp_path / "f.model"
        p.write_text(text)
        m1 = load_model(p)
        save_model(m1, tmp_path / "g.model")
        assert load_model(tmp_path / "g.model") == m1

    def test_plan_round_trip(self, tmp_path, bernoulli):
        plan = SimPlan(bernoulli, n_values=(8, 32), reps=1234, seed=17,
                       alpha_one_sided=(-1.0, 0.25), alpha_two_sided=((-1.0, 0.5),),
                       slack=0.75)
        save_plan(plan, tmp_path / "p.plan", tmp_path / "p.model")
        loaded = load_plan(tmp_path / "p.plan")
        assert loaded == plan

    def test_plan_round_trip_with_its_model_elsewhere(self, tmp_path, bernoulli):
        # the plan names the model relative to its own directory
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        plan = SimPlan(bernoulli, n_values=(8,), reps=10)
        save_plan(plan, tmp_path / "a" / "p.plan", tmp_path / "b" / "m.model")
        assert "model = ../b/m.model\n" in (tmp_path / "a" / "p.plan").read_text()
        assert load_plan(tmp_path / "a" / "p.plan") == plan

    @pytest.mark.parametrize("name", ["run#1.model", "'q.model", " it's #2.model"])
    def test_model_names_the_reader_would_misread_round_trip(self, tmp_path, bernoulli, name):
        plan = SimPlan(bernoulli, n_values=(8,), reps=10)
        save_plan(plan, tmp_path / "p.plan", tmp_path / name)
        assert f"model = {name!r}\n" in (tmp_path / "p.plan").read_text()
        assert load_plan(tmp_path / "p.plan") == plan

    def test_quoted_model_name_takes_a_trailing_comment(self, tmp_path, bernoulli):
        save_model(bernoulli, tmp_path / "run#1.model")
        (tmp_path / "p.plan").write_text('model = "run#1.model"  # the "first" run\n')
        assert load_plan(tmp_path / "p.plan").model == bernoulli

    def test_seeded_models_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(206)
        path = tmp_path / "r.model"
        changed = []
        for i in range(200):
            model = random_model(rng)
            save_model(model, path)
            if load_model(path) != model:
                changed.append(i)
        assert changed == []

    def test_infinite_alphas_round_trip(self, tmp_path, bernoulli):
        inf = math.inf
        plan = SimPlan(bernoulli, n_values=(8,), reps=10,
                       alpha_one_sided=(-inf, 0.0, inf),
                       alpha_two_sided=((-inf, 0.5), (-1.0, inf), (-inf, inf)))
        save_plan(plan, tmp_path / "p.plan", tmp_path / "p.model")
        text = (tmp_path / "p.plan").read_text()
        assert "alpha_one_sided = [-1e999, 0, 1e999]\n" in text
        assert load_plan(tmp_path / "p.plan") == plan

    def test_plan_round_trip_keeps_the_digest(self, tmp_path):
        rng = np.random.default_rng(97)
        for i in range(20):
            plan = SimPlan(random_model(rng), n_values=(4, 64), reps=100, seed=i)
            save_plan(plan, tmp_path / "p.plan", tmp_path / "p.model")
            assert load_plan(tmp_path / "p.plan").digest() == plan.digest()

    def test_plan_model_path_is_relative_to_plan(self, tmp_path, bernoulli):
        sub = tmp_path / "nested"
        sub.mkdir()
        save_model(bernoulli, sub / "m.model")
        (sub / "p.plan").write_text("model = m.model\nreps = 10\n")
        plan = load_plan(sub / "p.plan")
        assert plan.model == bernoulli
        assert plan.reps == 10


class TestParsePlan:
    def test_defaults_applied(self, tmp_path, bernoulli):
        save_model(bernoulli, tmp_path / "m.model")
        plan = parse_plan("model = m.model\n", base_dir=tmp_path)
        assert plan.reps == 1_000_000
        assert plan.seed == 0
        assert plan.n_values == (16, 64, 256, 1024, 4096, 16384)
        assert len(plan.alpha_two_sided) == 28
        assert plan.slack == 1.0
        assert plan.digest() == SimPlan(plan.model).digest()

    def test_unknown_key_rejected(self, tmp_path, bernoulli):
        save_model(bernoulli, tmp_path / "m.model")
        with pytest.raises(ParseError) as exc:
            parse_plan("model = m.model\nworkers = 4\n", path="p.plan",
                       base_dir=tmp_path)
        assert str(exc.value) == (
            "p.plan:2: unknown key 'workers' (known: model, n_values, reps, seed, "
            "alpha_one_sided, alpha_two_sided, slack)")

    def test_duplicate_key_rejected(self, tmp_path, bernoulli):
        save_model(bernoulli, tmp_path / "m.model")
        with pytest.raises(ParseError) as exc:
            parse_plan("model = m.model\nreps = 1\nreps = 2\n", path="p.plan",
                       base_dir=tmp_path)
        assert str(exc.value) == "p.plan:3: duplicate key 'reps' (first on line 2)"

    def test_quoted_model_must_be_one_string(self):
        with pytest.raises(ParseError) as exc:
            parse_plan("reps = 10\nmodel = 'a', 'b'\n", path="p.plan")
        assert str(exc.value) == "p.plan:2: model must be a path, got ('a', 'b')"

    def test_missing_model_key(self):
        with pytest.raises(ParseError):
            parse_plan("reps = 10\n")

    def test_invalid_n_values_rejected(self, tmp_path, bernoulli):
        # every plan value is checked by SimPlan; nothing is truncated or
        # parsed from text, and the error names the key
        save_model(bernoulli, tmp_path / "m.model")
        table = [
            "n_values = [64, 16]", "n_values = [1.5]", "n_values = []",
            "n_values = [16.0]", "reps = [1]", "reps = 2.5", "reps = True",
            "seed = 1.9", 'seed = "7"', "slack = -1", "slack = 1e999",
            "alpha_one_sided = [[1]]", 'alpha_one_sided = ["1"]',
            "alpha_one_sided = {1: 2}", "alpha_two_sided = [[1, 2, 3]]",
        ]

        def rejected(line):
            try:
                parse_plan(f"model = m.model\n{line}\n", base_dir=tmp_path)
            except ParseError as exc:
                return line.split()[0] in str(exc) and exc.line == 2
            return False

        assert [line for line in table if not rejected(line)] == []


class TestCsv:
    def test_header_only_for_empty(self):
        assert csv_text([], SIM_SCHEMA) == ",".join(SIM_SCHEMA) + "\n"

    def test_floats_survive_round_trip(self, tmp_path):
        rows = [("run", 16, "one_sided_lower", -1.0 / 3.0, math.pi,
                 0.1234567890123456789, 10, 5.551115123125783e-17, 7)]
        path = tmp_path / "out.csv"
        emit_csv(rows, SIM_SCHEMA, path)
        text = path.read_text()
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == ",".join(SIM_SCHEMA)
        cells = lines[1].split(",")
        assert float(cells[3]) == -1.0 / 3.0
        assert float(cells[4]) == math.pi
        assert float(cells[7]) == 5.551115123125783e-17

    def test_nan_cell_for_unused_alpha(self):
        text = csv_text([("e", 4, math.nan, 1.0, 0.5, 0.5, 0.0, 0.0, True)],
                        REPORT_SCHEMA)
        row = text.splitlines()[1].split(",")
        assert row[2] == "nan"
        assert row[8] == "true"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            csv_text([(1, 2)], SIM_SCHEMA)

    def test_model_text_uses_17_digits(self, two_interval):
        text = model_text(two_interval.scaled(1 / 3))
        assert "0.33333333333333331" in text


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestSavedBytes:
    """Saved files are pinned byte for byte: a change to how a value is
    spelled fails here, not only in a recorded checksum."""

    def test_registry_model_files(self):
        assert {name: _sha256(model_text(m)) for name, m in MODEL_REGISTRY.items()} == {
            "bernoulli": "4abd9a3d3f778284c4e5513f51c70ec93b62e8350a06ab7ea1db64f05cc12741",
            "coin": "04975f7f7abfce596937b06bbe5b6fe51b1cd696451261704318b7d670f089e3",
            "two_interval": "8046989b9b12b6b82d07f8987f8cbfbd6482b6d6407b05537f6afa6153b5585d",
            "union_parts": "310ac9245b38c96ae6f1b4452a77fbb774b85ed46c537186906818f876797907",
            "mixed": "7b2bf9da670fe0924b249db4fa807c48e7c63a7e6161a886139aaa6fad90b042",
        }

    def test_default_plan_file(self):
        text = plan_text(SimPlan(MODEL_REGISTRY["mixed"]), "mixed.model")
        assert _sha256(text) == "b91724579d8fd8b240aed4463d3546e1e1693d26344f4bb55c1611ae0e1b43c1"

    def test_custom_plan_file(self):
        plan = SimPlan(MODEL_REGISTRY["union_parts"], n_values=(8, 32, 1000), reps=1234,
                       seed=2**64 - 1, alpha_one_sided=(-1.5, 0.1, 1 / 3),
                       alpha_two_sided=((-1.0, 0.5), (0.2, 2.25)), slack=0.75)
        text = plan_text(plan, "custom.model")
        assert "alpha_one_sided = [-1.5, 0.10000000000000001, 0.33333333333333331]\n" in text
        assert _sha256(text) == "11fc315f290d8a50d582d093d91422c00b684be1286cdd6b0a740143ac11dce7"
