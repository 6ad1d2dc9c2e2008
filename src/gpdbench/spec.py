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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

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


def suggested_norm(n_objectives: int) -> float:
    """Front norm suggestion for a given objective count.

    Returns ceil(log2(M)) as a real: 1.0 for two objectives (linear front),
    2.0 for three (spherical), 3.0 for eight, and so on.  Chosen so the
    hyper-surface stays close to a simplex-like spread as M grows.
    """
    if not isinstance(n_objectives, int) or n_objectives < 2:
        raise SpecError([f"objective count must be an integer >= 2, got {n_objectives!r}"])
    return float(math.ceil(math.log2(n_objectives)))


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
        if token.startswith("e") and token[1:].isdigit():
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
            if self.axis_j is None:
                errors.append(f"{where}: nearest_axis requires axis_j")
            elif not 1 <= int(self.axis_j) <= n_objectives:
                errors.append(f"{where}: axis_j must lie in 1..{n_objectives}, got {self.axis_j}")
            return ConstraintSpec(kind, None, None, None,
                                  None if self.axis_j is None else int(self.axis_j))
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
    use_meta = False (the two describe the same problem).  All validation
    diagnostics are collected before raising.
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
        m, q, t, s = self.objectives, self.meta_q, self.meta_t, self.distance_vars
        if not isinstance(m, int) or m < 2:
            errors.append(f"objectives must be an integer >= 2, got {m!r}")
        if not isinstance(s, int) or s < 1:
            errors.append(f"distance_vars must be an integer >= 1, got {s!r}")
        if not isinstance(q, int) or q < 1:
            errors.append(f"meta_q must be an integer >= 1, got {q!r}")
        if not isinstance(t, int) or t < 0:
            errors.append(f"meta_t must be an integer >= 0, got {t!r}")

        use_meta = bool(self.use_meta)
        if isinstance(q, int) and isinstance(t, int) and q >= 1 and t >= 0:
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
        if not isinstance(self.valleys_k, int) or self.valleys_k < 1:
            errors.append(f"valleys_k must be an integer >= 1, got {self.valleys_k!r}")
        object.__setattr__(self, "dissimilar", bool(self.dissimilar))

        p = self.norm_p
        if isinstance(p, str):
            if p.strip() == "auto":
                p = suggested_norm(m) if isinstance(m, int) and m >= 2 else None
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

        if isinstance(m, int) and m >= 2:
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

    @property
    def is_quasi_norm(self) -> bool:
        """True when 0 < p < 1, where the front surface is a quasi-norm sphere."""
        return self.norm_p < 1.0


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Re-run every validation check on an existing instance."""
    return ProblemSpec(
        objectives=spec.objectives, distance_vars=spec.distance_vars,
        distance_kind=spec.distance_kind, meta_q=spec.meta_q, meta_t=spec.meta_t,
        use_meta=spec.use_meta, norm_p=spec.norm_p, composition=spec.composition,
        valleys_k=spec.valleys_k, dissimilar=spec.dissimilar,
        distance_reference=spec.distance_reference,
        mixed_landscape=spec.mixed_landscape, constraints=spec.constraints,
    )


_TOP_KEYS = ("objectives", "meta_q", "meta_t", "use_meta", "distance_vars",
             "norm_p", "composition", "distance", "valleys_k", "dissimilar",
             "distance_reference", "mixed_landscape")
_BLOCK_KEYS = ("type", "reference", "threshold_a", "threshold_b", "axis_j")

_INT_KEYS = {"objectives", "meta_q", "meta_t", "distance_vars", "valleys_k"}
_BOOL_KEYS = {"use_meta", "dissimilar"}


def _parse_bool(token: str, where: str, errors: list[str]):
    low = token.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    errors.append(f"{where}: expected true or false, got {token!r}")
    return None


def _parse_int(token: str, where: str, errors: list[str]):
    try:
        return int(token.strip())
    except ValueError:
        errors.append(f"{where}: expected an integer, got {token!r}")
        return None


def _parse_float(token: str, where: str, errors: list[str]):
    try:
        return float(token.strip())
    except ValueError:
        errors.append(f"{where}: expected a real number, got {token!r}")
        return None


def _split_lines(text: str):
    """Yield (line_number, key, value) triples plus section markers."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield ln, line, raw


def parse_spec(text: str) -> ProblemSpec:
    """Parse the key = value format into a validated instance.

    Syntax diagnostics carry line numbers; unknown keys are rejected.  All
    syntax problems are collected before raising, and validation problems
    are collected by the instance constructor.
    """
    errors: list[str] = []
    top: dict[str, object] = {}
    blocks: list[dict[str, object]] = []
    current: dict[str, object] | None = None
    discard = False

    for ln, line, raw in _split_lines(text):
        if line == "[constraint]":
            current = {}
            blocks.append(current)
            discard = False
            continue
        if line.startswith("["):
            errors.append(f"line {ln}: unknown section {line!r}")
            discard = True
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if discard:
            continue
        where = f"line {ln}"
        if current is None:
            if key not in _TOP_KEYS:
                errors.append(f"{where}: unknown key {key!r}")
                continue
            if key in top:
                errors.append(f"{where}: duplicate key {key!r}")
                continue
            if key in _INT_KEYS:
                parsed = _parse_int(value, where, errors)
            elif key in _BOOL_KEYS:
                parsed = _parse_bool(value, where, errors)
            else:
                parsed = value
            if parsed is not None:
                top[key] = parsed
        else:
            if key not in _BLOCK_KEYS:
                errors.append(f"{where}: unknown constraint key {key!r}")
                continue
            if key in current:
                errors.append(f"{where}: duplicate constraint key {key!r}")
                continue
            if key in ("threshold_a", "threshold_b"):
                parsed = _parse_float(value, where, errors)
            elif key == "axis_j":
                parsed = _parse_int(value, where, errors)
            else:
                parsed = value
            if parsed is not None:
                current[key] = parsed

    for i, block in enumerate(blocks):
        if "type" not in block:
            errors.append(f"constraint {i + 1}: missing required field 'type'")

    if errors:
        raise SpecError(errors)

    missing = [key for key in ("objectives", "distance_vars", "distance") if key not in top]
    if missing:
        raise SpecError([f"missing required key {key!r}" for key in missing])

    constraints = tuple(
        ConstraintSpec(
            kind=str(block.get("type")),
            reference=block.get("reference"),
            threshold_a=block.get("threshold_a"),
            threshold_b=block.get("threshold_b"),
            axis_j=block.get("axis_j"),
        )
        for block in blocks
    )
    kwargs: dict[str, object] = {
        "objectives": top["objectives"],
        "distance_vars": top["distance_vars"],
        "distance_kind": top["distance"],
        "constraints": constraints,
    }
    for key in ("meta_q", "meta_t", "use_meta", "norm_p", "composition",
                "valleys_k", "dissimilar", "distance_reference", "mixed_landscape"):
        if key in top:
            kwargs[key] = top[key]
    return ProblemSpec(**kwargs)


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


_RANGE_ORDER = ("objectives", "meta_q", "meta_t", "use_meta", "distance_vars",
                "norm_p", "composition", "distance", "valleys_k", "dissimilar",
                "mixed_landscape", "distance_reference")


def parse_ranges(text: str) -> dict:
    """Parse a suite ranges file.

    Each top-level value is either a single literal, a comma-separated choice
    list, or an inclusive integer span written lo..hi.  [constraint] blocks
    are not sampled; they apply verbatim to every generated instance and are
    returned under the "constraints" key.
    """
    errors: list[str] = []
    ranges: dict[str, object] = {}
    blocks: list[dict[str, object]] = []
    current: dict[str, object] | None = None

    for ln, line, raw in _split_lines(text):
        if line == "[constraint]":
            current = {}
            blocks.append(current)
            continue
        if line.startswith("["):
            errors.append(f"line {ln}: unknown section {line!r}")
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        where = f"line {ln}"
        if current is not None:
            if key not in _BLOCK_KEYS:
                errors.append(f"{where}: unknown constraint key {key!r}")
                continue
            if key in ("threshold_a", "threshold_b"):
                parsed = _parse_float(value, where, errors)
            elif key == "axis_j":
                parsed = _parse_int(value, where, errors)
            else:
                parsed = value
            if parsed is not None:
                current[key] = parsed
            continue
        if key not in _RANGE_ORDER:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        if key in ranges:
            errors.append(f"{where}: duplicate key {key!r}")
            continue
        if key == "distance_reference":
            ranges[key] = [value]
            continue
        if ".." in value and key in _INT_KEYS:
            lo_s, hi_s = value.split("..", 1)
            lo = _parse_int(lo_s, where, errors)
            hi = _parse_int(hi_s, where, errors)
            if lo is not None and hi is not None:
                if lo > hi:
                    errors.append(f"{where}: empty span {value!r}")
                else:
                    ranges[key] = list(range(lo, hi + 1))
            continue
        tokens = [tok.strip() for tok in value.split(",")]
        if any(not tok for tok in tokens):
            errors.append(f"{where}: empty choice in {value!r}")
            continue
        choices: list[object] = []
        for tok in tokens:
            if key in _INT_KEYS:
                parsed = _parse_int(tok, where, errors)
            elif key in _BOOL_KEYS:
                parsed = _parse_bool(tok, where, errors)
            else:
                parsed = tok
            if parsed is not None:
                choices.append(parsed)
        if choices:
            ranges[key] = choices

    if errors:
        raise SpecError(errors)
    out: dict[str, object] = dict(ranges)
    if blocks:
        for i, block in enumerate(blocks):
            if "type" not in block:
                raise SpecError([f"constraint {i + 1}: missing required field 'type'"])
        out["constraints"] = tuple(
            ConstraintSpec(
                kind=str(block.get("type")),
                reference=block.get("reference"),
                threshold_a=block.get("threshold_a"),
                threshold_b=block.get("threshold_b"),
                axis_j=block.get("axis_j"),
            )
            for block in blocks
        )
    return out


def generate_suite(seed: int, count: int, ranges: Mapping[str, object]) -> list[ProblemSpec]:
    """Draw a deterministic list of valid instances from choice sets.

    Every field present in ranges is drawn uniformly from its choices; absent
    fields keep their defaults.  Draws that fail validation (for example an
    invalid q, t pair) are rejected and redrawn, up to a bounded number of
    attempts per instance.  Equal (seed, count, ranges) always produce the
    identical list.
    """
    if count < 1:
        raise SpecError([f"suite count must be >= 1, got {count}"])
    fixed_constraints = tuple(ranges.get("constraints", ()))
    sampled: list[tuple[str, list]] = []
    for key in _RANGE_ORDER:
        if key not in ranges:
            continue
        choices = list(ranges[key])
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
