"""Model and plan file parsing, serialization, and CSV emission.

Both file kinds use one line-based ``key = value`` grammar chosen for
diff-friendly test fixtures; ``#`` outside quotes starts a comment and blank
lines are ignored.  Values are written with 17 significant digits, which
round-trips IEEE doubles exactly, and an infinite alpha as ``1e999`` or ``-1e999``.

Model file::

    model   = "M" "=" float { focal } ;
    focal   = "focal" "=" "{" "parts" "=" list-of-pairs ","
                           "mass" "=" float "}" ;

``parts`` is a list like ``[[0, 1], [2.5, 3]]``.  ``FocalElement`` merges
touching or overlapping intervals inside one focal element silently;
distinct focal elements may overlap freely.  The parser owns only the
grammar and the line numbers; ``FocalElement`` and ``BeliefModel`` check
the values, and a value they reject becomes a ParseError at the M line or
the focal element's line.  Masses whose fsum is
within MASS_SUM_TOL of 1 load as written; a sum off by more, but by at most
LOAD_MASS_TOL, is divided out once, so saving and loading a model gives it
back exactly.

Plan file::

    plan    = { assignment } ;
    keys    : model (path, resolved relative to the plan file, quoted where needed),
              n_values, reps, seed, alpha_one_sided, alpha_two_sided, slack.

A line without ``=``, an unknown key or a second line for a key other than
``focal`` is a ParseError at that line; ``SimPlan`` checks the values.
"""

from __future__ import annotations

import ast
import csv
import dataclasses
import io
import math
import re
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .belief import MASS_SUM_TOL, BeliefModel, FocalElement
from .errors import ParseError, as_real
from .montecarlo import SimPlan

LOAD_MASS_TOL = 1e-6

# the text before a comment; "#" inside a quoted string is text
_CODE_RE = re.compile(r"""(?:[^#"']+|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*'|["'])*""")

_FOCAL_RE = re.compile(
    r"^\{\s*parts\s*=\s*(?P<parts>\[.*\])\s*,\s*mass\s*=\s*(?P<mass>[^,\s}]+)\s*\}$"
)

PLAN_KEYS = tuple(f.name for f in dataclasses.fields(SimPlan))


def _assignments(text: str, path: str, keys: Sequence[str],
                 repeated: str | None = None) -> Iterator[tuple[int, str, str]]:
    """``(line, key, value)`` of each ``key = value`` line, in file order;
    an unknown key or a second line for a key but ``repeated`` is an error."""
    first: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", path, lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ParseError(f"unknown key {key!r} (known: {', '.join(keys)})", path, lineno)
        if key in first and key != repeated:
            raise ParseError(f"duplicate key {key!r} (first on line {first[key]})", path, lineno)
        first.setdefault(key, lineno)
        yield lineno, key, value


def _literal(text: str, path: str, lineno: int) -> Any:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ParseError(f"malformed value {text!r}: {exc}", path, lineno) from exc


def _parse_focal(value: str, path: str, lineno: int) -> tuple[FocalElement, float]:
    match = _FOCAL_RE.match(value)
    if match is None:
        raise ParseError(
            "focal block must look like "
            "'focal = { parts = [[a, b], ...], mass = m }'", path, lineno
        )
    parts = _literal(match.group("parts"), path, lineno)
    mass = _literal(match.group("mass"), path, lineno)
    try:
        return FocalElement(parts), mass
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno) from exc


def _load_masses(focal: list[tuple[FocalElement, Any]]) -> list[tuple[FocalElement, Any]]:
    """The masses divided by their fsum when that is off 1 by more than
    MASS_SUM_TOL but at most LOAD_MASS_TOL; otherwise as written."""
    try:
        total = math.fsum(as_real("mass", m) for _, m in focal)
    except ValueError:
        return focal  # BeliefModel names the bad mass
    if MASS_SUM_TOL < abs(total - 1.0) <= LOAD_MASS_TOL:
        return [(f, m / total) for f, m in focal]
    return focal


def parse_model(text: str, path: str = "<string>") -> BeliefModel:
    bound = bound_line = None
    focal: list[tuple[FocalElement, Any]] = []
    focal_lines: list[int] = []
    for lineno, key, value in _assignments(text, path, ("M", "focal"), repeated="focal"):
        if key == "M":
            bound, bound_line = _literal(value, path, lineno), lineno
        else:
            focal.append(_parse_focal(value, path, lineno))
            focal_lines.append(lineno)
    if bound_line is None:
        raise ParseError("missing 'M = <float>' line", path)
    try:
        return BeliefModel(_load_masses(focal), bound)
    except ValueError as exc:
        # BeliefModel's message starts with the field it rejects, then
        # "#i" when the value belongs to the i-th focal element
        field, _, rest = str(exc).partition(" ")
        entry = re.match(r"#(\d+) ", rest)
        line = (bound_line if field == "bound"
                else focal_lines[int(entry[1])] if entry else None)
        raise ParseError(str(exc), path, line) from exc


def load_model(path: str | Path) -> BeliefModel:
    """Parse a model file; ``BeliefModel`` checks its values."""
    p = Path(path)
    return parse_model(p.read_text(), str(p))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _text(value: Any) -> str:
    """A model or plan value as a file spells it: a tuple as ``[a, b, ...]``,
    a float with 17 digits and +-inf as +-1e999, a string by ``repr`` where
    the reader would cut, strip or unquote it, anything else by ``str``."""
    if isinstance(value, str):
        plain = value.isprintable() and value == value.strip() and not value.startswith(("'", '"'))
        return value if plain and "#" not in value else repr(value)
    if isinstance(value, tuple):
        return f"[{', '.join(map(_text, value))}]"
    if isinstance(value, float):
        return ("-1e999" if value < 0 else "1e999") if math.isinf(value) else _fmt(value)
    return str(value)


def save_model(model: BeliefModel, path: str | Path) -> None:
    Path(path).write_text(model_text(model))


def model_text(model: BeliefModel) -> str:
    lines = [f"M = {_text(model.bound)}"]
    for f, m in model.focal:
        lines.append(f"focal = {{ parts = {_text(f.parts)}, mass = {_text(m)} }}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str, path: str = "<string>",
               base_dir: str | Path | None = None) -> SimPlan:
    seen: dict[str, Any] = {}
    lines: dict[str, int] = {}
    for lineno, key, value in _assignments(text, path, PLAN_KEYS):
        lines[key] = lineno
        quoted = value.startswith(("'", '"'))
        seen[key] = value if key == "model" and not quoted else _literal(value, path, lineno)
    if "model" not in seen:
        raise ParseError("plan must name a model file via 'model = <path>'", path)
    if not isinstance(seen["model"], str):
        raise ParseError(f"model must be a path, got {seen['model']!r}", path, lines["model"])
    model_path = Path(seen["model"])
    if not model_path.is_absolute() and base_dir is not None:
        model_path = Path(base_dir) / model_path
    seen["model"] = load_model(model_path)
    try:
        return SimPlan(**seen)
    except (ValueError, TypeError) as exc:
        # SimPlan's message starts with the field it rejects
        raise ParseError(str(exc), path, lines.get(str(exc).split()[0])) from exc


def load_plan(path: str | Path) -> SimPlan:
    """Parse a plan file; the model path resolves relative to the plan."""
    p = Path(path)
    return parse_plan(p.read_text(), str(p), base_dir=p.parent)


def plan_text(plan: SimPlan, model_path: str) -> str:
    lines = [f"model = {_text(model_path)}"]
    lines += [f"{key} = {_text(getattr(plan, key))}" for key in PLAN_KEYS if key != "model"]
    return "\n".join(lines) + "\n"


def save_plan(plan: SimPlan, path: str | Path, model_path: str | Path) -> None:
    """Write the plan and its model side by side.

    ``model_path`` is where the model file is written; the plan references
    it by its name, so the pair stays relocatable as a unit.
    """
    model_path = Path(model_path)
    save_model(plan.model, model_path)
    Path(path).write_text(plan_text(plan, model_path.name))


SIM_SCHEMA = ("run_id", "n", "event_kind", "alpha1", "alpha2",
              "frequency", "reps", "se", "seed")
REPORT_SCHEMA = ("experiment", "n", "alpha1", "alpha2", "theory",
                 "empirical", "deviation", "se", "pass")


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def csv_text(rows: Iterable[Sequence[Any]], schema: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(
                f"row has {len(row)} fields, schema has {len(schema)}")
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def emit_csv(rows: Iterable[Sequence[Any]], schema: Sequence[str],
             path: str | Path) -> None:
    """Write rows as RFC-4180 CSV with LF endings and a header row."""
    Path(path).write_text(csv_text(rows, schema), newline="")


def sim_rows(sim) -> list[tuple]:
    return [
        (sim.run_id, r.n, r.kind, r.alpha1, r.alpha2, r.frequency, r.reps,
         r.se, sim.seed)
        for r in sim.rows
    ]


def report_rows(report) -> list[tuple]:
    return [
        (r.experiment, r.n, r.alpha1, r.alpha2, r.theory, r.empirical,
         r.deviation, r.se, r.passed)
        for r in report.rows
    ]
