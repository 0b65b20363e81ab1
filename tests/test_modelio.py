import math

import numpy as np
import pytest

from beliefclt import (
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
        assert len(plan.pairs_for(16)) == 28
        assert plan.slack == 1.0
        assert plan.digest() == SimPlan(plan.model).digest()

    def test_unknown_key_rejected(self, tmp_path, bernoulli):
        save_model(bernoulli, tmp_path / "m.model")
        with pytest.raises(ParseError) as exc:
            parse_plan("model = m.model\nworkers = 4\n", path="p.plan",
                       base_dir=tmp_path)
        assert exc.value.line == 2

    def test_duplicate_key_rejected(self, tmp_path, bernoulli):
        save_model(bernoulli, tmp_path / "m.model")
        with pytest.raises(ParseError):
            parse_plan("model = m.model\nreps = 1\nreps = 2\n", base_dir=tmp_path)

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
