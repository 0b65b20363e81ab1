"""Workload definitions and their seeded input generators.

Every input is a pure function of the workload name and ``--seed``: the
program under test only ever sees the generated model and plan files (or,
for ``moments_random``, the generated model texts).  Models are written in
the package's documented model-file grammar by this module itself, so a
change to the package's serializer cannot change the benchmark's inputs.

The module also holds an independent reference for the limit parameters
(two-pass sums over the focal minima and maxima), which the benchmark uses
to check the program's outputs; it does not import the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ALPHA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
DEFAULT_N_VALUES = (16, 64, 256, 1024, 4096, 16384)
DEFAULT_REPS = 1_000_000
DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))
RANDOM_MODELS = 1000
WIDE_FOCAL_REPS = 1 << 18  # 16 estimator blocks of 16384 trials per n

Part = tuple[float, float]


def alpha_pairs(grid: tuple[float, ...]) -> tuple[tuple[float, float], ...]:
    """Pairs (a1, a2) of the grid with a1 <= a2, in the package's order."""
    return tuple((a1, a2) for a1 in grid for a2 in grid if a1 <= a2)


@dataclass(frozen=True)
class Model:
    """A belief model as plain data: the bound M and (parts, mass) pairs."""

    bound: float
    focal: tuple[tuple[tuple[Part, ...], float], ...]

    def text(self) -> str:
        lines = [f"M = {self.bound!r}"]
        for parts, mass in self.focal:
            body = ", ".join(f"[{a!r}, {b!r}]" for a, b in parts)
            lines.append(f"focal = {{ parts = [{body}], mass = {mass!r} }}")
        return "\n".join(lines) + "\n"

    def hulls(self) -> list[tuple[float, float]]:
        """(focal minimum, focal maximum) of every focal element."""
        return [(min(a for a, _ in parts), max(b for _, b in parts))
                for parts, _ in self.focal]

    def reference_moments(self) -> dict[str, float]:
        """Means, standard deviations and correlation of (min, max), computed
        with centred two-pass sums; masses normalized to sum to one."""
        hulls = np.array(self.hulls(), dtype=float)
        w = np.array([m for _, m in self.focal], dtype=float)
        w = w / w.sum()
        lo, hi = hulls[:, 0], hulls[:, 1]
        mean_lo, mean_hi = float(w @ lo), float(w @ hi)
        dlo, dhi = lo - mean_lo, hi - mean_hi
        sd_lo = math.sqrt(float(w @ (dlo * dlo)))
        sd_hi = math.sqrt(float(w @ (dhi * dhi)))
        rho = float(w @ (dlo * dhi)) / (sd_lo * sd_hi)
        return {"lower_mean": mean_lo, "upper_mean": mean_hi,
                "lower_sd": sd_lo, "upper_sd": sd_hi, "rho": rho}


MIXED = Model(3.0, (
    (((0.0, 1.0),), 0.3),
    (((0.5, 2.5),), 0.3),
    (((2.0, 2.0),), 0.2),
    (((-2.0, -1.0), (1.0, 2.0)), 0.2),
))

# belief of {1} is 0.3, plausibility 0.7
BERNOULLI = Model(1.0, (
    (((1.0, 1.0),), 0.3),
    (((0.0, 0.0),), 0.3),
    (((0.0, 1.0),), 0.4),
))


def random_model(rng: np.random.Generator, max_focal: int = 50,
                 max_parts: int = 3, span: float = 5.0) -> Model:
    """2..max_focal focal elements of 1..max_parts parts with continuous
    endpoints in [-span, span]; Dirichlet masses; M a little above span."""
    k = int(rng.integers(2, max_focal + 1))
    focal = []
    for _ in range(k):
        p = int(rng.integers(1, max_parts + 1))
        pts = [float(x) for x in np.sort(rng.uniform(-span, span, size=2 * p))]
        focal.append(tuple((pts[2 * j], pts[2 * j + 1]) for j in range(p)))
    masses = [float(m) for m in rng.dirichlet(np.ones(k))]
    bound = span + float(rng.uniform(0.0, 3.0))
    return Model(bound, tuple(zip(focal, masses)))


def wide_focal_model(rng: np.random.Generator, hulls: int = 8,
                     per_hull: int = 4, step: float = 0.5,
                     bound: float = 5.0) -> Model:
    """hulls * per_hull focal elements on a step lattice in [-bound, bound].

    Focal elements come in groups sharing one (min, max) hull: the first of
    a group is the whole hull, the others cut a distinct interior gap out of
    it.  So only ``hulls`` distinct (min, max) pairs carry all the mass.
    """
    lattice = [step * i for i in range(-int(bound / step), int(bound / step) + 1)]
    chosen: set[tuple[float, float]] = set()
    min_width = step * (per_hull + 1)  # enough interior points for the gaps
    while len(chosen) < hulls:
        i, j = sorted(int(x) for x in rng.choice(len(lattice), 2, replace=False))
        if lattice[j] - lattice[i] >= min_width:
            chosen.add((lattice[i], lattice[j]))
    focal = []
    for lo, hi in sorted(chosen):
        inner = [lo + step * i for i in range(1, round((hi - lo) / step))]
        gaps = [(c, d) for i, c in enumerate(inner) for d in inner[i + 1:]]
        focal.append(((lo, hi),))
        for g in rng.choice(len(gaps), per_hull - 1, replace=False):
            c, d = gaps[int(g)]
            focal.append(((lo, c), (d, hi)))
    masses = [float(m) for m in rng.dirichlet(np.full(len(focal), 2.0))]
    return Model(bound, tuple(zip(focal, masses)))


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str | None  # CLI verify subcommand; None for the library loop
    models: tuple[Model, ...]
    seed: int
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    reps: int = DEFAULT_REPS
    alphas: tuple[float, ...] = ALPHA_GRID
    pairs: tuple[tuple[float, float], ...] = alpha_pairs(ALPHA_GRID)
    default_plan: bool = False  # plan file names only model and seed

    @property
    def model(self) -> Model:
        return self.models[0]

    @functools.cached_property
    def references(self) -> list[dict[str, float]]:
        """Reference moments of every model, computed once per workload."""
        return [m.reference_moments() for m in self.models]

    def plan_text(self, model_file: str) -> str:
        lines = [f"model = {model_file}", f"seed = {self.seed}"]
        if not self.default_plan:
            lines += [
                f"n_values = {list(self.n_values)}",
                f"reps = {self.reps}",
                f"alpha_one_sided = {list(self.alphas)}",
                f"alpha_two_sided = {[list(p) for p in self.pairs]}",
            ]
        return "\n".join(lines) + "\n"

    def report_events(self) -> set[tuple[str, int, float, float | None]]:
        """(experiment, n, alpha1, alpha2) of every row the report must hold;
        alpha2 is None for one-sided rows."""
        rows = set()
        for n in self.n_values:
            if self.subcommand == "verify-one-sided":
                for a in self.alphas:
                    rows.add(("one_sided_lower", n, a, None))
                    rows.add(("one_sided_upper", n, a, None))
            else:
                rows.update(("two_sided", n, a1, a2) for a1, a2 in self.pairs)
        return rows

    def counts(self, block_size: int) -> dict[str, float]:
        """Work the estimator is asked to do, computed from the plan."""
        if self.subcommand is None:
            return {"montecarlo.trials": 0, "montecarlo.coordinates": 0,
                    "montecarlo.blocks": 0, "montecarlo.event_tests": 0,
                    "montecarlo.counts_bytes_computed": 0}
        events = 2 * len(self.alphas) + len(self.pairs)
        k = len(self.model.focal)
        return {
            "montecarlo.trials": self.reps * len(self.n_values),
            "montecarlo.coordinates": self.reps * sum(self.n_values),
            "montecarlo.blocks": len(self.n_values) * -(-self.reps // block_size),
            "montecarlo.event_tests": self.reps * events * len(self.n_values),
            "montecarlo.counts_bytes_computed": self.reps * len(self.n_values) * k * 8,
        }

    def input_properties(self) -> dict[str, float]:
        focal = sum(len(m.focal) for m in self.models)
        distinct = sum(len(set(m.hulls())) for m in self.models)
        return {"input.focal": focal / len(self.models),
                "input.distinct_minmax": distinct / len(self.models),
                "input.repeated_hull_share": 1.0 - distinct / focal}


WORKLOADS = ("verify_default", "dense_grid", "wide_focal", "moments_random")


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for one seed."""
    rng = np.random.default_rng(seed)
    if name == "verify_default":
        return Workload(name, "verify-two-sided", (MIXED,), seed, default_plan=True)
    if name == "dense_grid":
        return Workload(name, "verify-two-sided", (BERNOULLI,), seed,
                        n_values=(16, 64, 256, 1024), alphas=DENSE_GRID,
                        pairs=alpha_pairs(DENSE_GRID))
    if name == "wide_focal":
        return Workload(name, "verify-one-sided", (wide_focal_model(rng),), seed,
                        n_values=(64, 1024, 16384), reps=WIDE_FOCAL_REPS)
    if name == "moments_random":
        models = tuple(random_model(rng) for _ in range(RANDOM_MODELS))
        return Workload(name, None, models, seed)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
