"""Shared generators for randomized model tests, and the environment of a
subprocess that imports the package."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from beliefclt import BeliefModel, FocalElement


def random_model(rng: np.random.Generator, max_focal: int = 50,
                 max_parts: int = 3, span: float = 5.0) -> BeliefModel:
    """Random interval-union model with at least two focal elements.

    Endpoints are continuous draws, so the min- and max-statistics are
    almost surely non-degenerate.
    """
    k = int(rng.integers(2, max_focal + 1))
    focal = []
    for _ in range(k):
        p = int(rng.integers(1, max_parts + 1))
        pts = np.sort(rng.uniform(-span, span, size=2 * p))
        parts = [(pts[2 * j], pts[2 * j + 1]) for j in range(p)]
        focal.append(FocalElement(parts))
    masses = rng.dirichlet(np.ones(k))
    bound = span + float(rng.uniform(0.0, 3.0))
    total = math.fsum(masses)
    return BeliefModel([(f, m / total) for f, m in zip(focal, masses)], bound)


def package_env(**variables: str) -> dict[str, str]:
    """This process's environment plus ``variables``, with the package's
    ``src`` directory first on PYTHONPATH."""
    env = {**os.environ, **variables}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
