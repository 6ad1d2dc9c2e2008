"""Problem specifications: parsing, validation, rendering, and suite sampling.

A specification fixes one benchmark instance: the number of objectives, the
position/distance split of the decision vector, the front norm, the distance
landscape, and any angular constraints.  Instances are immutable once
validated, so they can be shared freely between the evaluator, the reference
generators, and the command line tools.

The on-disk format is plain UTF-8 ``key = value`` lines with ``#`` comments.
Repeatable ``[constraint]`` section headers introduce constraint blocks::

    objectives = 3
    meta_q = 10
    meta_t = 4
    distance_vars = 10
    distance = deceptive

    [constraint]
    type = min_angle
    reference = e1
    threshold_a = 0.5

Suite ranges files share this grammar and its diagnostics; only their
top-level values differ.  Each is a comma-separated choice list or, for
integer keys only, an inclusive span lo..hi.  distance_reference is taken
whole, because its commas separate vector components, not choices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

DISTANCE_KINDS = ("deceptive", "robust", "convex_concave", "disconnected")
COMPOSITIONS = ("multiplicative", "additive")
CONSTRAINT_KINDS = ("min_angle", "max_angle", "band", "nearest_axis")
MIXED_LANDSCAPES = ("robust", "deceptive")


class SpecError(ValueError):
    """Raised for syntax or validation problems; carries every diagnostic."""

    def __init__(self, errors: Iterable[str]):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


def _integer(value) -> int | None:
    """The integer-field rule: operator.index makes Python and numpy integers
    (and bools) a plain int; floats, text and None give None."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def suggested_norm(n_objectives: int) -> float:
    """Front norm suggestion for a given objective count.

    Returns ceil(log2(M)) as a real: 1.0 for two objectives (linear front),
    2.0 for three (spherical), 3.0 for eight, and so on.  Chosen so the
    hyper-surface stays close to a simplex-like spread as M grows.
    """
    m = _integer(n_objectives)
    if m is None or m < 2:
        raise SpecError([f"objective count must be an integer >= 2, got {n_objectives!r}"])
    return float(math.ceil(math.log2(m)))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _resolve_reference(raw, n_objectives: int, where: str, errors: list[str]):
    """Turn 'diagonal', an axis label like 'e2', or an explicit vector into a tuple."""
    if raw is None:
        errors.append(f"{where}: missing reference")
        return None
    if isinstance(raw, str):
        token = raw.strip()
        if token == "diagonal":
            return (1.0,) * n_objectives
        # isdigit() would also pass "²", which int() rejects.
        if token.startswith("e") and token[1:].isdecimal():
            j = int(token[1:])
            if not 1 <= j <= n_objectives:
                errors.append(f"{where}: axis label {token!r} out of range 1..{n_objectives}")
                return None
            vec = [0.0] * n_objectives
            vec[j - 1] = 1.0
            return tuple(vec)
        try:
            parts = tuple(float(p) for p in token.split(","))
        except ValueError:
            errors.append(f"{where}: cannot read reference {raw!r}")
            return None
        raw = parts
    try:
        vec = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        errors.append(f"{where}: cannot read reference {raw!r}")
        return None
    if len(vec) != n_objectives:
        errors.append(f"{where}: reference has {len(vec)} components, expected {n_objectives}")
        return None
    if not all(math.isfinite(v) for v in vec):
        errors.append(f"{where}: reference must be finite")
        return None
    if any(v < 0 for v in vec) or not any(v > 0 for v in vec):
        errors.append(f"{where}: reference must be nonnegative with at least one positive component")
        return None
    return vec


@dataclass(frozen=True)
class ConstraintSpec:
    """One angular constraint on the position point.

    kind         one of min_angle, max_angle, band, nearest_axis
    reference    direction the angle is measured against (angle kinds only)
    threshold_a  lower/upper angle bound in (0, 1)
    threshold_b  upper band bound in (0, 1), band only
    axis_j       required nearest canonical axis, 1-based, nearest_axis only
    """

    kind: str
    reference: object = None
    threshold_a: float | None = None
    threshold_b: float | None = None
    axis_j: int | None = None

    def _validated(self, n_objectives: int, where: str, errors: list[str]) -> "ConstraintSpec":
        kind = self.kind
        if kind not in CONSTRAINT_KINDS:
            errors.append(f"{where}: unknown constraint type {kind!r}")
            return self
        if kind == "nearest_axis":
            if self.reference is not None:
                errors.append(f"{where}: nearest_axis takes axis_j, not a reference")
            if self.threshold_a is not None or self.threshold_b is not None:
                errors.append(f"{where}: nearest_axis takes no thresholds")
            j = _integer(self.axis_j)
            if self.axis_j is None:
                errors.append(f"{where}: nearest_axis requires axis_j")
            elif j is None:
                errors.append(f"{where}: axis_j must be an integer, got {self.axis_j!r}")
            elif not 1 <= j <= n_objectives:
                errors.append(f"{where}: axis_j must lie in 1..{n_objectives}, got {j}")
            return ConstraintSpec(kind, None, None, None, j)
        if self.axis_j is not None:
            errors.append(f"{where}: axis_j only applies to nearest_axis constraints")
        ref = _resolve_reference(self.reference, n_objectives, where, errors)
        a = self.threshold_a
        if a is None:
            errors.append(f"{where}: {kind} requires threshold_a")
        elif not (0.0 < float(a) < 1.0):
            errors.append(f"{where}: threshold_a must lie strictly inside (0, 1), got {a}")
        b = self.threshold_b
        if kind == "band":
            if b is None:
                errors.append(f"{where}: band requires threshold_b")
            elif not (0.0 < float(b) < 1.0):
                errors.append(f"{where}: threshold_b must lie strictly inside (0, 1), got {b}")
            elif a is not None and not float(a) < float(b):
                errors.append(f"{where}: band needs threshold_a < threshold_b, got {a} >= {b}")
        elif b is not None:
            errors.append(f"{where}: threshold_b only applies to band constraints")
        return ConstraintSpec(kind, ref,
                              None if a is None else float(a),
                              None if b is None else float(b), None)


@dataclass(frozen=True)
class ProblemSpec:
    """A fully validated benchmark instance.

    The decision vector splits as x = (x_p, x_d) with the position part of
    length (M-1)*q + t in [-1, 1] and the distance part of length
    distance_vars in [0, 1].  Validation resolves norm_p = "auto", resolves
    axis labels to explicit vectors, and normalizes q = 1, t = 0 to
    use_meta = False (the two describe the same problem).  Integer fields
    accept any integer type, numpy's included, and are stored as plain ints.
    All validation diagnostics are collected before raising.
    """

    objectives: int
    distance_vars: int
    distance_kind: str
    meta_q: int = 1
    meta_t: int = 0
    use_meta: bool = True
    norm_p: object = "auto"
    composition: str = "multiplicative"
    valleys_k: int = 1
    dissimilar: bool = False
    distance_reference: object = "diagonal"
    mixed_landscape: str = "robust"
    constraints: tuple[ConstraintSpec, ...] = ()

    def __post_init__(self):
        errors: list[str] = []

        def integer(name: str, least: int) -> int | None:
            raw = getattr(self, name)
            value = _integer(raw)
            if value is None or value < least:
                errors.append(f"{name} must be an integer >= {least}, got {raw!r}")
                return None
            object.__setattr__(self, name, value)
            return value

        m = integer("objectives", 2)
        integer("distance_vars", 1)
        q = integer("meta_q", 1)
        t = integer("meta_t", 0)

        use_meta = bool(self.use_meta)
        if q is not None and t is not None:
            if (q, t) == (1, 0):
                use_meta = False
            elif not use_meta:
                errors.append(f"use_meta=false requires meta_q=1 and meta_t=0, got q={q}, t={t}")
            elif not 2 * t + 1 < q:
                errors.append(f"2t+1 < q violated ({2 * t + 1} >= {q})")
        object.__setattr__(self, "use_meta", use_meta)

        if self.distance_kind not in DISTANCE_KINDS:
            errors.append(f"unknown distance kind {self.distance_kind!r}; "
                          f"expected one of {', '.join(DISTANCE_KINDS)}")
        if self.composition not in COMPOSITIONS:
            errors.append(f"unknown composition {self.composition!r}; "
                          f"expected one of {', '.join(COMPOSITIONS)}")
        if self.mixed_landscape not in MIXED_LANDSCAPES:
            errors.append(f"unknown mixed_landscape {self.mixed_landscape!r}; "
                          f"expected one of {', '.join(MIXED_LANDSCAPES)}")
        integer("valleys_k", 1)
        object.__setattr__(self, "dissimilar", bool(self.dissimilar))

        p = self.norm_p
        if isinstance(p, str):
            if p.strip() == "auto":
                p = None if m is None else suggested_norm(m)
            else:
                try:
                    p = float(p)
                except ValueError:
                    errors.append(f"norm_p must be a positive real or 'auto', got {self.norm_p!r}")
                    p = None
        if p is not None:
            p = float(p)
            if not math.isfinite(p) or p <= 0:
                errors.append(f"norm_p must be positive and finite, got {p!r}")
                p = None
        object.__setattr__(self, "norm_p", p)

        if m is not None:
            ref = _resolve_reference(self.distance_reference, m, "distance_reference", errors)
            object.__setattr__(self, "distance_reference", ref)
            resolved = tuple(
                c._validated(m, f"constraint {i + 1}", errors)
                for i, c in enumerate(self.constraints)
            )
            object.__setattr__(self, "constraints", resolved)
        else:
            object.__setattr__(self, "constraints", tuple(self.constraints))

        if errors:
            raise SpecError(errors)

    @property
    def position_dim(self) -> int:
        """Length of the position part: (M-1)*q + t."""
        return (self.objectives - 1) * self.meta_q + self.meta_t

    @property
    def total_dim(self) -> int:
        return self.position_dim + self.distance_vars

    @property
    def g_landscape(self) -> str:
        """Landscape that supplies g: deceptive or robust.

        The deceptive and robust kinds are their own landscape; the
        shape-bending kinds take theirs from mixed_landscape.
        """
        if self.distance_kind in ("deceptive", "robust"):
            return self.distance_kind
        return self.mixed_landscape


# Top-level keys, in the order generate_suite draws them: the order fixes
# which instances a seed gives.
_RANGE_ORDER = ("objectives", "meta_q", "meta_t", "use_meta", "distance_vars",
                "norm_p", "composition", "distance", "valleys_k", "dissimilar",
                "mixed_landscape", "distance_reference")
# Longest lo..hi span: len() of a range and rng.integers both stop at int64.
_MAX_SPAN = int(np.iinfo(np.int64).max)
_BLOCK_KEYS = ("type", "reference", "threshold_a", "threshold_b", "axis_j")
# The typed keys; every other key holds text.
_VALUE_TYPES = {
    **dict.fromkeys(("objectives", "meta_q", "meta_t", "distance_vars", "valleys_k",
                     "axis_j"), int),
    **dict.fromkeys(("use_meta", "dissimilar"), bool),
    **dict.fromkeys(("threshold_a", "threshold_b"), float),
}
_EXPECTED = {int: "an integer", float: "a real number", bool: "true or false"}


def _parse_value(key: str, token: str, where: str, errors: list[str]):
    """Type one value by its key; on failure report it and return None."""
    kind = _VALUE_TYPES.get(key, str)
    if kind is str:
        return token
    text = token.strip()
    if kind is bool:
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
    else:
        try:
            return kind(text)
        except ValueError:
            pass
    errors.append(f"{where}: expected {_EXPECTED[kind]}, got {token!r}")
    return None


def _read(text: str, top_value: Callable[[str, str, str, list[str]], object]
          ) -> tuple[dict[str, object], tuple[ConstraintSpec, ...]]:
    """Read the shared spec/ranges grammar into (top-level values, constraints).

    top_value(key, value, where, errors) reads one top-level value, the only
    step in which spec and ranges files differ; it reports a bad value and
    returns None.  Keys under an unknown section are discarded.  Every
    syntax diagnostic is collected, with its line number, before raising.
    """
    errors: list[str] = []
    top: dict[str, object] = {}
    blocks: list[dict[str, object]] = []
    current: dict[str, object] | None = top

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {ln}"
        if line == "[constraint]":
            current = {}
            blocks.append(current)
            continue
        if line.startswith("["):
            errors.append(f"{where}: unknown section {line!r}")
            current = None
            continue
        if "=" not in line:
            errors.append(f"{where}: expected 'key = value', got {raw.strip()!r}")
            continue
        if current is None:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if current is top:
            known, label, read = _RANGE_ORDER, "key", top_value
        else:
            known, label, read = _BLOCK_KEYS, "constraint key", _parse_value
        if key not in known:
            errors.append(f"{where}: unknown {label} {key!r}")
        elif key in current:
            errors.append(f"{where}: duplicate {label} {key!r}")
        else:
            parsed = read(key, value, where, errors)
            if parsed is not None:
                current[key] = parsed

    for i, block in enumerate(blocks):
        if "type" not in block:
            errors.append(f"constraint {i + 1}: missing required field 'type'")
    if errors:
        raise SpecError(errors)
    return top, tuple(ConstraintSpec(block.pop("type"), **block) for block in blocks)


def parse_spec(text: str) -> ProblemSpec:
    """Parse the key = value format into a validated instance.

    Syntax diagnostics carry line numbers; unknown keys are rejected.  All
    syntax problems are collected before raising, and validation problems
    are collected by the instance constructor.
    """
    top, constraints = _read(text, _parse_value)
    missing = [key for key in ("objectives", "distance_vars", "distance") if key not in top]
    if missing:
        raise SpecError([f"missing required key {key!r}" for key in missing])
    top["distance_kind"] = top.pop("distance")
    return ProblemSpec(**top, constraints=constraints)


def render_spec(spec: ProblemSpec) -> str:
    """Canonical text form; parse_spec(render_spec(s)) == s."""
    lines = [
        f"objectives = {spec.objectives}",
        f"meta_q = {spec.meta_q}",
        f"meta_t = {spec.meta_t}",
        f"use_meta = {'true' if spec.use_meta else 'false'}",
        f"distance_vars = {spec.distance_vars}",
        f"norm_p = {_fmt(spec.norm_p)}",
        f"composition = {spec.composition}",
        f"distance = {spec.distance_kind}",
        f"valleys_k = {spec.valleys_k}",
        f"dissimilar = {'true' if spec.dissimilar else 'false'}",
        f"distance_reference = {','.join(_fmt(v) for v in spec.distance_reference)}",
        f"mixed_landscape = {spec.mixed_landscape}",
    ]
    for c in spec.constraints:
        lines.append("")
        lines.append("[constraint]")
        lines.append(f"type = {c.kind}")
        if c.kind == "nearest_axis":
            lines.append(f"axis_j = {c.axis_j}")
        else:
            lines.append(f"reference = {','.join(_fmt(v) for v in c.reference)}")
            lines.append(f"threshold_a = {_fmt(c.threshold_a)}")
            if c.kind == "band":
                lines.append(f"threshold_b = {_fmt(c.threshold_b)}")
    return "\n".join(lines) + "\n"


def _read_choices(key: str, value: str, where: str, errors: list[str]):
    """A ranges-file value: a choice list, an integer span, or one reference."""
    if key == "distance_reference":
        return [value]
    if ".." in value and _VALUE_TYPES.get(key) is int:
        lo_s, hi_s = value.split("..", 1)
        lo = _parse_value(key, lo_s, where, errors)
        hi = _parse_value(key, hi_s, where, errors)
        if lo is None or hi is None:
            return None
        if lo > hi:
            errors.append(f"{where}: empty span {value!r}")
            return None
        if hi - lo >= _MAX_SPAN:
            errors.append(f"{where}: span {value!r} has more than {_MAX_SPAN} values")
            return None
        return range(lo, hi + 1)
    tokens = [tok.strip() for tok in value.split(",")]
    if not all(tokens):
        errors.append(f"{where}: empty choice in {value!r}")
        return None
    choices = [_parse_value(key, tok, where, errors) for tok in tokens]
    return [c for c in choices if c is not None] or None


def parse_ranges(text: str) -> dict:
    """Parse a suite ranges file.

    Each top-level value is either a single literal, a comma-separated choice
    list, or an inclusive integer span written lo..hi, returned as a range
    so a long span costs no memory.  [constraint] blocks are not sampled;
    they apply verbatim to every generated instance and are returned under
    the "constraints" key.
    """
    ranges, constraints = _read(text, _read_choices)
    if constraints:
        ranges["constraints"] = constraints
    return ranges


def _choices(ranges: Mapping[str, object], key: str) -> Sequence:
    """ranges[key] as a sequence of values; a SpecError for any other shape."""
    choices = ranges[key]
    if isinstance(choices, range):
        try:
            len(choices)
        except OverflowError:
            raise SpecError([f"choice set for {key!r} has more than "
                             f"{_MAX_SPAN} values"]) from None
        return choices
    if isinstance(choices, (str, bytes)) or not isinstance(choices, Iterable):
        raise SpecError([f"choice set for {key!r} must be a collection of values, "
                         f"got {type(choices).__name__} {choices!r}"])
    return list(choices)


def generate_suite(seed: int, count: int, ranges: Mapping[str, object]) -> list[ProblemSpec]:
    """Draw a deterministic list of valid instances from choice sets.

    Every field present in ranges is drawn uniformly from its choices; absent
    fields keep their defaults.  Keys are those parse_ranges returns; any
    other key is a SpecError, and so is a value that is not a collection of
    choices (a bare string or a scalar).  Draws that fail validation (for
    example an invalid q, t pair) are rejected and redrawn, up to a bounded
    number of attempts per instance.  Equal (seed, count, ranges) always produce the
    identical list.
    """
    if count < 1:
        raise SpecError([f"suite count must be >= 1, got {count}"])
    unknown = [key for key in ranges if key not in _RANGE_ORDER and key != "constraints"]
    if unknown:
        raise SpecError([f"unknown ranges key {key!r}" for key in unknown])
    fixed_constraints = tuple(_choices(ranges, "constraints")) if "constraints" in ranges else ()
    sampled: list[tuple[str, Sequence]] = []
    for key in _RANGE_ORDER:
        if key not in ranges:
            continue
        choices = _choices(ranges, key)
        if not choices:
            raise SpecError([f"empty choice set for {key!r}"])
        sampled.append((key, choices))

    rng = np.random.default_rng(seed)
    out: list[ProblemSpec] = []
    for index in range(count):
        last: SpecError | None = None
        for _ in range(1000):
            kwargs: dict[str, object] = {"constraints": fixed_constraints}
            for key, choices in sampled:
                value = choices[int(rng.integers(len(choices)))]
                kwargs["distance_kind" if key == "distance" else key] = value
            for required, default in (("objectives", 2), ("distance_vars", 1),
                                      ("distance_kind", "deceptive")):
                kwargs.setdefault(required, default)
            try:
                out.append(ProblemSpec(**kwargs))
                break
            except SpecError as err:
                last = err
        else:
            detail = last.errors if last is not None else []
            raise SpecError([f"no valid specification found for instance {index + 1} "
                             f"after 1000 draws", *detail])
    return out
