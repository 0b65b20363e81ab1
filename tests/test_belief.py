import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefclt import (
    BeliefModel,
    FocalElement,
    IntervalEvent,
    SimPlan,
    belief,
    plausibility,
)
from beliefclt.modelio import model_text

from _intervals import complement, empty, interval, intersect, is_empty, real_line, union
from _monotonicity import (
    GridTooLarge,
    check_capacity_monotonicity,
    grid_cells,
    total_monotonicity_check,
)


class TestFocalElement:
    def test_constructor_sorts_and_merges(self):
        f = FocalElement([(2, 3), (0, 1), (1, 1.5)])
        assert f.parts == ((0.0, 1.5), (2.0, 3.0))
        assert f.min == 0.0 and f.max == 3.0

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            FocalElement([])
        with pytest.raises(ValueError):
            FocalElement([(1, 0)])
        with pytest.raises(ValueError):
            FocalElement([(0, math.inf)])
        with pytest.raises(ValueError, match="real number"):
            FocalElement([([0], 1)])
        with pytest.raises(ValueError, match="pair"):
            FocalElement([(0, 1, 2)])
        with pytest.raises(ValueError, match="real number"):
            FocalElement([("0", "1")])
        with pytest.raises(ValueError, match="real number"):
            FocalElement([(False, True)])
        # a bad part is rejected even where a neighbour would swallow it
        with pytest.raises(ValueError, match="a > b"):
            FocalElement([(0, 3), (2, 1)])

    def test_direct_construction_stores_floats(self):
        # equal models hash to one run_id, however their endpoints were spelled
        direct = BeliefModel([(FocalElement(((0, 1),)), 0.5), (FocalElement(((1, 1),)), 0.5)], 1)
        made = BeliefModel([(FocalElement([[0.0, 0.5], [0.5, 1]]), 0.5),
                            (FocalElement(iter([[1, 1]])), 0.5)], 1)
        assert direct == made and repr(direct) == repr(made)
        assert {type(v) for f, _ in direct.focal for part in f.parts for v in part} == {float}
        assert SimPlan(direct).digest() == SimPlan(made).digest() == "69146e3b99e2"
        with pytest.raises(ValueError, match="real number"):
            FocalElement((("0", 1),))

    def test_signed_zero_is_stored_as_zero(self):
        # -0.0 == 0.0, but repr tells them apart; the digest hashes repr
        neg, pos = (BeliefModel([(FocalElement([(z, 1)]), 1.0)], 1) for z in (-0.0, 0.0))
        assert neg == pos
        assert SimPlan(neg).digest() == SimPlan(pos).digest()
        assert model_text(neg) == model_text(pos)
        assert math.copysign(1.0, neg.focal[0][0].min) == 1.0
    def test_containment_needs_single_piece_cover(self):
        f = FocalElement([(0, 1), (2, 3)])
        assert f.contained_in(IntervalEvent.closed(0, 3))
        assert f.contained_in(IntervalEvent.closed(-1, 4))
        # the union covers both parts but the gap does not matter
        holey = union(IntervalEvent.closed(0, 1), IntervalEvent.closed(2, 3))
        assert f.contained_in(holey)
        assert not f.contained_in(IntervalEvent.closed(0, 2.5))

    def test_intersects(self):
        f = FocalElement([(0, 1), (2, 3)])
        assert f.intersects(IntervalEvent.closed(1.0, 1.2))
        assert not f.intersects(IntervalEvent.open(1, 2))
        assert f.intersects(IntervalEvent.at_least(3.0))


def _unit(mass, parts=((0, 1),)):
    return (FocalElement(parts), mass)


# one bad value per case: (focal, bound, the field the message starts with)
BAD_MODELS = {
    "mass sum 0.5": ([_unit(0.5)], 1.0, "mass"),
    "mass 0": ([_unit(1.0), _unit(0.0)], 1.0, "mass"),
    "mass -0.5": ([_unit(1.5), _unit(-0.5)], 1.0, "mass"),
    "string mass": ([_unit("1")], 2.0, "mass"),
    "bool mass": ([_unit(True)], 2.0, "mass"),
    "nan mass": ([_unit(math.nan)], 2.0, "mass"),
    "outside the bound": ([_unit(1.0, ((0, 2),))], 1.0, "focal"),
    "no focal element": ([], 1.0, "focal"),
    "entry not a pair": ([FocalElement([(0, 1)])], 1.0, "focal"),
    "parts not a focal element": ([((0, 1), 1.0)], 1.0, "focal"),
    "M 0": ([_unit(1.0, ((0, 0),))], 0.0, "bound"),
    "M -1": ([_unit(1.0)], -1.0, "bound"),
    "M inf": ([_unit(1.0)], math.inf, "bound"),
    "M 1e200": ([_unit(1.0)], 1e200, "bound"),
    "M True": ([_unit(1.0)], True, "bound"),
    "M string": ([_unit(1.0)], "2", "bound"),
    "M None": ([_unit(1.0)], None, "bound"),
}


class TestModelValues:
    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_bad_value_raises_naming_its_field(self, case):
        focal, bound, field = BAD_MODELS[case]
        with pytest.raises(ValueError) as exc:
            BeliefModel(focal, bound)
        assert str(exc.value).startswith(field), str(exc.value)

    def test_stored_as_tuples_of_floats(self):
        f = FocalElement([(0, 1)])
        model = BeliefModel(iter([[f, np.float64(0.25)], (f, 3 / 4)]), 1)
        assert model.focal == ((f, 0.25), (f, 0.75))
        assert all(type(e) is tuple and type(e[1]) is float for e in model.focal)
        assert type(model.bound) is float
        assert repr(model) == repr(BeliefModel(model.focal, 1.0))

    def test_mass_sum_within_tolerance_is_kept_as_written(self):
        f = FocalElement([(0, 1)])
        model = BeliefModel([(f, 0.1), (f, 0.2), (f, 0.7)], 1.0)
        assert [m for _, m in model.focal] == [0.1, 0.2, 0.7]

    def test_derived_models_are_checked(self, two_interval):
        assert replace(two_interval, bound=4.0).bound == 4.0
        with pytest.raises(ValueError, match="^focal #1"):
            replace(two_interval, bound=2.0)
        with pytest.raises(ValueError, match="^bound"):
            two_interval.scaled(1e154)
        with pytest.raises(ValueError, match="^bound"):
            two_interval.shifted(1e154)


class TestBeliefValues:
    def test_bernoulli_events(self, bernoulli):
        one = IntervalEvent.point(1.0)
        assert belief(bernoulli, one) == pytest.approx(0.3, abs=1e-15)
        assert plausibility(bernoulli, one) == pytest.approx(0.7, abs=1e-15)
        assert belief(bernoulli, IntervalEvent.closed(0, 1)) == 1.0
        assert belief(bernoulli, IntervalEvent.less_than(1)) == pytest.approx(0.3)
        assert belief(bernoulli, empty()) == 0.0

    def test_two_interval_events(self, two_interval):
        assert belief(two_interval, IntervalEvent.closed(0, 1)) == 0.5
        assert belief(two_interval, IntervalEvent.closed(0, 3)) == 1.0
        assert plausibility(two_interval, IntervalEvent.point(1.0)) == 1.0
        assert belief(two_interval, IntervalEvent.point(1.0)) == 0.0

    def test_continuity_from_above_on_shrinking_closed_intervals(self, two_interval):
        # [0, 3 - 1/k] decreases to [0, 3); belief settles at the value of the
        # open limit event once 3 - 1/k clears the last focal endpoint below 3
        limit = belief(two_interval, interval(0, 3, True, False))
        vals = [belief(two_interval, IntervalEvent.closed(0, 3 - 1 / k))
                for k in range(1, 60)]
        assert vals[-1] == limit
        assert all(v <= limit + 1e-15 for v in vals)

    def test_plausibility_conjugation(self, bernoulli, two_interval):
        events = [
            IntervalEvent.point(1.0),
            IntervalEvent.closed(0, 1),
            IntervalEvent.at_least(0.5),
            IntervalEvent.less_than(2.0),
            IntervalEvent.open(0, 3),
            union(IntervalEvent.closed(0.5, 1), IntervalEvent.closed(2, 2.5)),
        ]
        for model in (bernoulli, two_interval):
            for ev in events:
                assert plausibility(model, ev) == pytest.approx(
                    1.0 - belief(model, complement(ev)), abs=1e-12)


_pts = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    k = draw(st.integers(1, 6))
    focal = []
    for _ in range(k):
        a, b = sorted((draw(_pts), draw(_pts)))
        focal.append(FocalElement([(a, b)]))
    masses = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                           min_size=k, max_size=k))
    total = math.fsum(masses)
    return BeliefModel([(f, m / total) for f, m in zip(focal, masses)], 4.0)


@st.composite
def simple_events(draw):
    a, b = sorted((draw(_pts), draw(_pts)))
    kind = draw(st.sampled_from(["closed", "open", "ge", "lt"]))
    if kind == "closed":
        return IntervalEvent.closed(a, b)
    if kind == "open":
        return IntervalEvent.open(a, b)
    if kind == "ge":
        return IntervalEvent.at_least(a)
    return IntervalEvent.less_than(b)


@st.composite
def touching_parts(draw):
    """Two runs of parts; in each run a part starts inside, or at the end
    of, the one before, so each run merges into one interval."""
    parts = []
    for offset in (0.0, 20.0):
        a = draw(_pts) + offset
        for _ in range(draw(st.integers(1, 4))):
            b = draw(st.floats(min_value=a, max_value=a + 2))
            parts.append((a, b))
            a = draw(st.floats(min_value=a, max_value=b))
    return parts


@given(touching_parts(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_focal_element_ignores_part_order(parts, rnd):
    shuffled = list(parts)
    rnd.shuffle(shuffled)
    f = FocalElement(parts)
    assert FocalElement(shuffled) == f
    assert len(f.parts) == 2
    assert f.parts[0][1] < f.parts[1][0]
    assert (f.min, f.max) == (min(a for a, _ in parts), max(b for _, b in parts))


@given(models(), simple_events(), simple_events())
@settings(max_examples=150)
def test_belief_monotone_and_bounded(model, ev1, ev2):
    b1 = belief(model, ev1)
    assert 0.0 <= b1 <= 1.0 + 1e-12
    assert b1 <= plausibility(model, ev1) + 1e-12
    # monotone under union
    assert b1 <= belief(model, union(ev1, ev2)) + 1e-12


@given(models(), simple_events(), simple_events())
@settings(max_examples=150)
def test_belief_is_supermodular(model, ev1, ev2):
    # 2-monotonicity: nu(A u B) + nu(A n B) >= nu(A) + nu(B)
    lhs = belief(model, union(ev1, ev2)) + belief(model, intersect(ev1, ev2))
    rhs = belief(model, ev1) + belief(model, ev2)
    assert lhs >= rhs - 1e-12


class TestTotalMonotonicity:
    def test_grid_cells_partition_line(self):
        cells = grid_cells([0.0, 1.0, 2.5])
        assert len(cells) == 4
        covered = cells[0]
        for c in cells[1:]:
            covered = union(covered, c)
        assert covered == real_line()
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                assert is_empty(intersect(a, b))

    def test_belief_model_passes(self, bernoulli, two_interval):
        for model, grid in [(bernoulli, [0.0, 0.5, 1.0]),
                            (two_interval, [0.0, 1.0, 2.0, 3.0])]:
            for order in (2, 3):
                rep = total_monotonicity_check(model, grid, order=order)
                assert rep.passed, (rep.witness, rep.lhs, rep.rhs)

    def test_non_belief_capacity_caught_at_order_two(self):
        # nu(A) = nu(B) = 0.6, nu(A u B) = 1, nu(A n B) = 0 violates
        # supermodularity: 1 + 0 < 0.6 + 0.6
        def capacity(mask: int) -> float:
            return {0b00: 0.0, 0b01: 0.6, 0b10: 0.6, 0b11: 1.0}[mask]

        rep = check_capacity_monotonicity(capacity, n_cells=2, order=2)
        assert not rep.passed
        assert rep.witness_masks is not None
        assert rep.lhs < rep.rhs

    def test_grid_budget(self, bernoulli):
        with pytest.raises(GridTooLarge):
            total_monotonicity_check(bernoulli, [i / 16 for i in range(15)],
                                     order=3)
