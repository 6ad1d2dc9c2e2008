"""Spec records: validation, parsing, rendering, ranges, suite generation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from test_array_pipeline import specs

import gpdbench.spec
from gpdbench import (
    ConstraintSpec,
    ProblemSpec,
    SpecError,
    generate_suite,
    parse_ranges,
    parse_spec,
    render_spec,
)
from gpdbench.spec import suggested_norm

MINIMAL = "objectives = 3\ndistance_vars = 2\ndistance = robust\n"


def make(**kw):
    base = dict(objectives=3, distance_vars=2, distance_kind="robust")
    base.update(kw)
    return ProblemSpec(**base)


def test_suggested_norm_values():
    # ceil(log2(M)), with the exact-power cases staying exact
    assert suggested_norm(2) == 1.0
    assert suggested_norm(3) == 2.0
    assert suggested_norm(4) == 2.0
    assert suggested_norm(8) == 3.0
    assert suggested_norm(9) == 4.0
    assert suggested_norm(1024) == 10.0
    with pytest.raises(SpecError, match="^objective count must be an integer >= 2, got 1$"):
        suggested_norm(1)


def test_dimension_arithmetic():
    s = ProblemSpec(objectives=3, distance_vars=10, distance_kind="deceptive",
                    meta_q=10, meta_t=4)
    assert s.position_dim == 24
    assert s.total_dim == 34


def test_defaults_and_meta_off_normalization():
    s = make()
    # meta_q=1, meta_t=0 is the degenerate window; it must normalize to meta off
    assert s.meta_q == 1 and s.meta_t == 0
    assert s.use_meta is False
    assert s.norm_p == 2.0
    assert s.composition == "multiplicative"
    assert s.distance_reference == (1.0, 1.0, 1.0)
    assert s.constraints == ()


def test_auto_norm_resolution():
    assert make(norm_p="auto").norm_p == 2.0
    assert make(objectives=2, norm_p="auto").norm_p == 1.0
    assert make(objectives=8, norm_p="auto").norm_p == 3.0
    assert make(norm_p=0.5).norm_p == 0.5


def test_window_overlap_rule():
    # 2t+1 < q must hold whenever meta-variables are on
    with pytest.raises(SpecError, match="2t\\+1 < q"):
        make(meta_q=4, meta_t=2)
    s = make(meta_q=5, meta_t=1)
    assert s.use_meta is True
    assert s.position_dim == 2 * 5 + 1


def test_error_aggregation():
    with pytest.raises(SpecError) as exc:
        ProblemSpec(objectives=1, distance_vars=0, distance_kind="nope")
    assert len(exc.value.errors) == 3


def test_reference_resolution():
    assert make(distance_reference="e2").distance_reference == (0.0, 1.0, 0.0)
    assert make(distance_reference="2,1,0.5").distance_reference == (2.0, 1.0, 0.5)
    assert make(distance_reference=(1, 2, 3)).distance_reference == (1.0, 2.0, 3.0)
    with pytest.raises(SpecError):
        make(distance_reference=(1.0, 2.0))  # wrong length
    with pytest.raises(SpecError):
        make(distance_reference=(1.0, -1.0, 0.0))  # leaves the first orthant
    with pytest.raises(SpecError):
        make(distance_reference=(0.0, 0.0, 0.0))


def test_constraint_validation():
    with pytest.raises(SpecError, match="missing reference"):
        make(constraints=(ConstraintSpec(kind="min_angle", threshold_a=0.2),))
    with pytest.raises(SpecError, match="threshold_a < threshold_b"):
        make(constraints=(ConstraintSpec(kind="band", reference="diagonal",
                                         threshold_a=0.7, threshold_b=0.3),))
    with pytest.raises(SpecError, match="unknown constraint type"):
        make(constraints=(ConstraintSpec(kind="bogus", threshold_a=0.1),))
    with pytest.raises(SpecError, match="axis_j must lie in 1..3"):
        make(constraints=(ConstraintSpec(kind="nearest_axis", axis_j=5),))
    with pytest.raises(SpecError, match="takes axis_j, not a reference"):
        make(constraints=(ConstraintSpec(kind="nearest_axis",
                                         reference="diagonal", axis_j=1),))
    s = make(constraints=(ConstraintSpec(kind="max_angle", reference="e2",
                                         threshold_a=0.4),))
    assert s.constraints[0].reference == (0.0, 1.0, 0.0)


def test_parse_minimal():
    s = parse_spec(MINIMAL)
    assert s.objectives == 3
    assert s.distance_vars == 2
    assert s.distance_kind == "robust"


def test_parse_comments_and_case():
    text = "# header comment\nobjectives = 3\n\ndistance_vars = 2 # trailing\ndistance = robust\n"
    assert parse_spec(text) == parse_spec(MINIMAL)


def assert_errors(parse, text, errors):
    with pytest.raises(SpecError) as exc:
        parse(text)
    assert exc.value.errors == errors


def test_parse_diagnostics_carry_line_numbers():
    cases = [
        ("objectives = 3\nbogus_key = 1\n", ["line 2: unknown key 'bogus_key'"]),
        (MINIMAL + "objectives = 4\n", ["line 4: duplicate key 'objectives'"]),
        # keys under an unknown section are discarded, not read as top-level keys
        (MINIMAL + "[extra]\nobjectives = 4\n", ["line 4: unknown section '[extra]'"]),
        # every block without a type is reported, also after a syntax error
        (MINIMAL + "bogus_key = 1\n[constraint]\naxis_j = 1\n[constraint]\nreference = e1\n",
         ["line 4: unknown key 'bogus_key'", "constraint 1: missing required field 'type'",
          "constraint 2: missing required field 'type'"]),
    ]
    for parse in (parse_spec, parse_ranges):
        for text, errors in cases:
            assert_errors(parse, text, errors)
    with pytest.raises(SpecError, match="missing required key"):
        parse_spec("objectives = 3\n")


def test_parse_constraint_block():
    text = MINIMAL + (
        "\n[constraint]\ntype = band\nreference = diagonal\n"
        "threshold_a = 0.3\nthreshold_b = 0.7\n"
        "\n[constraint]\ntype = nearest_axis\naxis_j = 2\n")
    s = parse_spec(text)
    assert len(s.constraints) == 2
    assert s.constraints[0].kind == "band"
    assert s.constraints[0].reference == (1.0, 1.0, 1.0)
    assert s.constraints[1].axis_j == 2


def test_parse_constraint_block_bad_key():
    cases = [
        (MINIMAL + "\n[constraint]\nkind = band\n",
         ["line 6: unknown constraint key 'kind'", "constraint 1: missing required field 'type'"]),
        (MINIMAL + "\n[constraint]\ntype = band\ntype = min_angle\n",
         ["line 7: duplicate constraint key 'type'"]),
    ]
    for parse in (parse_spec, parse_ranges):
        for text, errors in cases:
            assert_errors(parse, text, errors)


def test_render_round_trip():
    specs = [
        make(),
        make(objectives=4, distance_vars=7, distance_kind="deceptive",
             meta_q=5, meta_t=1, norm_p="auto", valleys_k=3),
        make(distance_kind="disconnected", mixed_landscape="deceptive",
             composition="additive", dissimilar=True,
             distance_reference=(0.25, 1.0, 0.5)),
        make(constraints=(
            ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.2),
            ConstraintSpec(kind="band", reference=(1, 2, 3),
                           threshold_a=0.1, threshold_b=0.9),
            ConstraintSpec(kind="nearest_axis", axis_j=3),
        )),
    ]
    for s in specs:
        assert parse_spec(render_spec(s)) == s


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs())
def test_render_round_trip_property(s):
    text = render_spec(s)
    assert parse_spec(text) == s
    # a rendered spec is a one-instance ranges file
    assert generate_suite(0, 1, parse_ranges(text)) == [s]


def test_render_is_plain_text():
    text = render_spec(make(norm_p=1 / 3))
    assert "norm_p = 0.33333333333333331" in text
    # every non-blank, non-section line is a key = value pair
    for line in text.splitlines():
        if line and not line.startswith("["):
            assert " = " in line


def test_parse_ranges():
    r = parse_ranges("objectives = 2..4\ndistance_vars = 5\ndistance = deceptive, robust\n")
    assert r["objectives"] == range(2, 5)
    assert r["distance_vars"] == [5]
    assert r["distance"] == ["deceptive", "robust"]


def test_parse_ranges_keeps_constraint_blocks():
    r = parse_ranges("objectives = 3\n\n[constraint]\ntype = nearest_axis\naxis_j = 1\n")
    assert "constraints" in r


def test_generate_suite_deterministic_and_valid():
    ranges = parse_ranges(
        "objectives = 2..4\ndistance_vars = 2..6\ndistance = deceptive, robust\n")
    a = generate_suite(7, 6, ranges)
    b = generate_suite(7, 6, ranges)
    assert a == b
    assert len(a) == 6
    for s in a:
        assert 2 <= s.objectives <= 4
        assert 2 <= s.distance_vars <= 6
    assert generate_suite(8, 6, ranges) != a


def test_generate_suite_rejects_invalid_combos():
    # (meta_q=4, meta_t=2) violates the overlap rule; the other combos survive
    ranges = {"objectives": [3], "distance_vars": [2], "distance": ["robust"],
              "meta_q": [4, 9], "meta_t": [0, 2]}
    suite = generate_suite(3, 8, ranges)
    for s in suite:
        if s.use_meta:
            assert 2 * s.meta_t + 1 < s.meta_q


def test_generate_suite_exhaustion():
    ranges = {"objectives": [3], "distance_vars": [2], "distance": ["robust"],
              "meta_q": [4], "meta_t": [2]}
    with pytest.raises(SpecError, match="no valid specification"):
        generate_suite(0, 1, ranges)


def test_long_span_costs_no_memory():
    tracemalloc.start()
    try:
        ranges = parse_ranges("objectives = 2..4\ndistance_vars = 1..10000000000\n"
                              "distance = robust\n")
        suite = generate_suite(5, 3, ranges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranges["distance_vars"] == range(1, 10000000001)
    assert len(suite) == 3 and all(1 <= s.distance_vars <= 10 ** 10 for s in suite)
    assert peak < 1 << 20


def test_span_draws_match_list_choices():
    ranges = parse_ranges("objectives = 2..4\ndistance_vars = 1..300\n"
                          "distance = deceptive, robust\n")
    # The draw loop over plain lists, in the order generate_suite draws keys.
    objectives, distance_vars = list(range(2, 5)), list(range(1, 301))
    kinds = ["deceptive", "robust"]
    rng = np.random.default_rng(11)
    want = []
    for _ in range(40):
        m = objectives[int(rng.integers(len(objectives)))]
        s = distance_vars[int(rng.integers(len(distance_vars)))]
        kind = kinds[int(rng.integers(len(kinds)))]
        want.append(ProblemSpec(objectives=m, distance_vars=s, distance_kind=kind))
    assert generate_suite(11, 40, ranges) == want


def test_span_too_long_is_a_spec_error():
    top = 2 ** 63
    with pytest.raises(SpecError, match=r"line 2: span '1\.\.%d'" % top):
        parse_ranges(f"objectives = 3\ndistance_vars = 1..{top}\n")
    assert len(parse_ranges(f"distance_vars = 1..{top - 1}\n")["distance_vars"]) == top - 1


def test_suite_range_too_long_is_a_spec_error():
    with pytest.raises(SpecError) as exc:
        generate_suite(0, 1, {"distance_vars": range(1, 2 ** 64)})
    assert exc.value.errors == [f"choice set for 'distance_vars' has more than "
                                f"{2 ** 63 - 1} values"]


def test_suite_string_value_is_a_spec_error():
    # A bare string used to be drawn from letter by letter.
    with pytest.raises(SpecError) as exc:
        generate_suite(0, 1, {"distance": "robust"})
    assert exc.value.errors == ["choice set for 'distance' must be a collection "
                                "of values, got str 'robust'"]


def test_suite_scalar_value_is_a_spec_error():
    with pytest.raises(SpecError) as exc:
        generate_suite(0, 1, {"objectives": 3})
    assert exc.value.errors == ["choice set for 'objectives' must be a collection "
                                "of values, got int 3"]


def test_suite_unknown_key_is_a_spec_error():
    with pytest.raises(SpecError) as exc:
        generate_suite(0, 1, {"distance_var": [3], "objectives": [3], "kind": ["robust"]})
    assert exc.value.errors == ["unknown ranges key 'distance_var'",
                                "unknown ranges key 'kind'"]


@pytest.mark.parametrize("text, errors", [
    ("objectives = three\ndistance_vars = 2\ndistance = robust\n",
     ["line 1: expected an integer, got 'three'"]),
    (MINIMAL + "[constraint]\ntype = min_angle\nthreshold_a = wide\n",
     ["line 6: expected a real number, got 'wide'"]),
    (MINIMAL + "dissimilar = maybe\n", ["line 4: expected true or false, got 'maybe'"]),
])
def test_parse_value_diagnostics(text, errors):
    assert_errors(parse_spec, text, errors)


@pytest.mark.parametrize("parse", [parse_spec, parse_ranges])
def test_read_diagnostics(parse):
    assert_errors(parse, "objectives 3\n", ["line 1: expected 'key = value', got 'objectives 3'"])


@pytest.mark.parametrize("text, errors", [
    ("objectives = 4..2\n", ["line 1: empty span '4..2'"]),
    ("distance = robust,,deceptive\n", ["line 1: empty choice in 'robust,,deceptive'"]),
    ("objectives = a..3\n", ["line 1: expected an integer, got 'a'"]),
])
def test_read_choices_diagnostics(text, errors):
    assert_errors(parse_ranges, text, errors)


@pytest.mark.parametrize("count, ranges, errors", [
    (0, {"objectives": [3]}, ["suite count must be >= 1, got 0"]),
    (1, {"objectives": []}, ["empty choice set for 'objectives'"]),
    (2.5, {"objectives": [3]}, ["suite count must be an integer, got 2.5"]),
    ("3", {"objectives": [3]}, ["suite count must be an integer, got '3'"]),
    (1, {"objectives": [3], "constraints": [1]},
     ["constraint 1: expected a ConstraintSpec, got 1"]),
    # Constraint errors that hold at every M, reported before any draw.
    (1, {"objectives": [3, 4], "constraints": [ConstraintSpec(kind="wedge")]},
     ["constraint 1: unknown constraint type 'wedge'"]),
    (1, {"objectives": [3, 4], "constraints": [
        ConstraintSpec(kind="min_angle", reference="diagonal"),
        ConstraintSpec(kind="max_angle", reference="e1", threshold_a="wide"),
        ConstraintSpec(kind="band", reference="diagonal", threshold_a=2.0, threshold_b=0.5),
        ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.6, threshold_b=0.4),
        ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.2)]},
     ["constraint 1: min_angle requires threshold_a",
      "constraint 2: threshold_a must be a real number, got 'wide'",
      "constraint 3: threshold_a must lie strictly inside (0, 1), got 2.0",
      "constraint 3: band needs threshold_a < threshold_b, got 2.0 >= 0.5",
      "constraint 4: band needs threshold_a < threshold_b, got 0.6 >= 0.4",
      "constraint 5: band requires threshold_b"]),
    (1, {"objectives": [3, 4], "constraints": [
        ConstraintSpec(kind="nearest_axis", reference="e1", threshold_a=0.5),
        ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.5, axis_j=1),
        ConstraintSpec(kind="max_angle", reference="diagonal", threshold_a=0.5,
                       threshold_b=0.7),
        ConstraintSpec(kind="nearest_axis"),
        ConstraintSpec(kind="nearest_axis", axis_j=1.5)]},
     ["constraint 1: nearest_axis takes axis_j, not a reference",
      "constraint 1: nearest_axis takes no thresholds",
      "constraint 1: nearest_axis requires axis_j",
      "constraint 2: axis_j only applies to nearest_axis constraints",
      "constraint 3: threshold_b only applies to band constraints",
      "constraint 4: nearest_axis requires axis_j",
      "constraint 5: axis_j must be an integer, got 1.5"]),
    (1, {"objectives": [3], "constraints": [
        ConstraintSpec(kind="min_angle", reference="1,x", threshold_a=0.5),
        ConstraintSpec(kind="min_angle", reference=(1.0, float("inf"), 1.0), threshold_a=0.5),
        ConstraintSpec(kind="min_angle", reference="-1,1,1", threshold_a=0.5),
        ConstraintSpec(kind="min_angle", reference=None, threshold_a=0.5),
        ConstraintSpec(kind="min_angle", reference="ex", threshold_a=0.5)]},
     ["constraint 1: cannot read reference '1,x'",
      "constraint 2: reference must be finite",
      "constraint 3: reference must be nonnegative with at least one positive component",
      "constraint 4: missing reference",
      "constraint 5: cannot read reference 'ex'"]),
])
def test_generate_suite_diagnostics(monkeypatch, count, ranges, errors):
    built = []
    monkeypatch.setattr(gpdbench.spec, "ProblemSpec", lambda **kw: built.append(kw))
    with pytest.raises(SpecError) as exc:
        generate_suite(0, count, ranges)
    assert exc.value.errors == errors
    assert built == []


def test_generate_suite_leaves_the_errors_that_depend_on_m_to_the_draws():
    fits_m5 = (ConstraintSpec(kind="nearest_axis", axis_j=5),
               ConstraintSpec(kind="min_angle", reference="e5", threshold_a=0.5),
               ConstraintSpec(kind="band", reference="1,0,0,0,1", threshold_a=0.2,
                              threshold_b=0.6))
    suite = generate_suite(0, 4, {"objectives": [3, 5], "constraints": fits_m5})
    assert [s.objectives for s in suite] == [5] * 4
    with pytest.raises(SpecError) as exc:
        generate_suite(0, 1, {"objectives": [3, 4], "constraints": fits_m5[1:2]})
    assert exc.value.errors[0] == "no valid specification found for instance 1 after 1000 draws"


def test_generate_suite_reports_a_malformed_constraint_before_any_draw(monkeypatch):
    built = []
    monkeypatch.setattr(gpdbench.spec, "ProblemSpec", lambda **kw: built.append(kw))
    ranges = {"objectives": [2, 3],
              "constraints": [ConstraintSpec(kind="nearest_axis", axis_j=1), ("band",)]}
    with pytest.raises(SpecError) as exc:
        generate_suite(0, 3, ranges)
    assert exc.value.errors == ["constraint 2: expected a ConstraintSpec, got ('band',)"]
    assert built == []


@pytest.mark.parametrize("fields, errors", [
    (dict(meta_q=0), ["meta_q must be an integer >= 1, got 0"]),
    (dict(meta_t=-1), ["meta_t must be an integer >= 0, got -1"]),
    (dict(valleys_k=0), ["valleys_k must be an integer >= 1, got 0"]),
    (dict(use_meta=False, meta_q=5, meta_t=1),
     ["use_meta=false requires meta_q=1 and meta_t=0, got q=5, t=1"]),
    (dict(composition="sum"),
     ["unknown composition 'sum'; expected one of multiplicative, additive"]),
    (dict(mixed_landscape="flat"),
     ["unknown mixed_landscape 'flat'; expected one of robust, deceptive"]),
    (dict(norm_p="wide"), ["norm_p must be a positive real or 'auto', got 'wide'"]),
    (dict(norm_p=float("inf")), ["norm_p must be positive and finite, got inf"]),
    (dict(norm_p="nan"), ["norm_p must be positive and finite, got nan"]),
    (dict(objectives=3.0), ["objectives must be an integer >= 2, got 3.0"]),
    (dict(distance_vars="2"), ["distance_vars must be an integer >= 1, got '2'"]),
    (dict(dissimilar="false"), ["dissimilar must be true or false, got 'false'"]),
    (dict(dissimilar=2), ["dissimilar must be true or false, got 2"]),
    (dict(use_meta="no", meta_q=5, meta_t=1), ["use_meta must be true or false, got 'no'"]),
    (dict(use_meta=None), ["use_meta must be true or false, got None"]),
    (dict(norm_p="wide", constraints=(
        ConstraintSpec(kind="min_angle", reference="e1", threshold_a="x"),)),
     ["norm_p must be a positive real or 'auto', got 'wide'",
      "constraint 1: threshold_a must be a real number, got 'x'"]),
    (dict(norm_p=None), ["norm_p must be a positive real or 'auto', got None"]),
    (dict(norm_p=[1]), ["norm_p must be a positive real or 'auto', got [1]"]),
    (dict(constraints=ConstraintSpec(kind="band")),
     ["constraints must be a collection of ConstraintSpec, got ConstraintSpec(kind='band', "
      "reference=None, threshold_a=None, threshold_b=None, axis_j=None)"]),
    (dict(constraints=[("band",)]), ["constraint 1: expected a ConstraintSpec, got ('band',)"]),
    (dict(objectives=1, constraints=(ConstraintSpec(kind="nearest_axis", axis_j=1), 7)),
     ["objectives must be an integer >= 2, got 1",
      "constraint 2: expected a ConstraintSpec, got 7"]),
])
def test_problem_spec_diagnostics(fields, errors):
    with pytest.raises(SpecError) as exc:
        make(**fields)
    assert exc.value.errors == errors


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integer_fields_make_the_int_built_spec(kind):
    def built(n):
        return make(objectives=n(5), distance_vars=n(3), meta_q=n(4), meta_t=n(1),
                    valleys_k=n(2), distance_kind="deceptive",
                    constraints=(ConstraintSpec(kind="nearest_axis", axis_j=n(2)),))

    got, want = built(kind), built(int)
    assert got == want and hash(got) == hash(want)
    assert render_spec(got) == render_spec(want)
    for value in (got.objectives, got.distance_vars, got.meta_q, got.meta_t,
                  got.valleys_k, got.constraints[0].axis_j):
        assert type(value) is int


def test_numpy_choice_arrays_draw_the_suite_of_int_lists():
    ints = {"objectives": [2, 3, 4, 5], "distance_vars": [3], "meta_q": [1, 4, 6],
            "meta_t": [0, 1], "valleys_k": [1, 2]}
    arrays = {key: np.array(values) for key, values in ints.items()}
    arrays["objectives"] = np.arange(2, 6)
    got, want = generate_suite(0, 8, arrays), generate_suite(0, 8, ints)
    assert got == want
    assert [render_spec(s) for s in got] == [render_spec(s) for s in want]


@pytest.mark.parametrize("reference, message", [
    ("e4", "axis label 'e4' out of range 1..3"),
    ("1,x,2", "cannot read reference '1,x,2'"),
    ((1.0, None, 2.0), "cannot read reference (1.0, None, 2.0)"),
    ("inf,1,1", "reference must be finite"),
    ((1.0, float("nan"), 1.0), "reference must be finite"),
    ("e\u00b2", "cannot read reference 'e\u00b2'"),  # a digit, but not a decimal one
])
def test_resolve_reference_diagnostics(reference, message):
    with pytest.raises(SpecError) as exc:
        make(distance_reference=reference)
    assert exc.value.errors == [f"distance_reference: {message}"]


@pytest.mark.parametrize("fields, message", [
    (dict(kind="nearest_axis", axis_j=1, threshold_a=0.2), "nearest_axis takes no thresholds"),
    (dict(kind="nearest_axis", axis_j=1, threshold_b=0.2), "nearest_axis takes no thresholds"),
    (dict(kind="nearest_axis"), "nearest_axis requires axis_j"),
    (dict(kind="min_angle", reference="e1", threshold_a=0.2, axis_j=1),
     "axis_j only applies to nearest_axis constraints"),
    (dict(kind="max_angle", reference="e1"), "max_angle requires threshold_a"),
    (dict(kind="min_angle", reference="e1", threshold_a=1.0),
     "threshold_a must lie strictly inside (0, 1), got 1.0"),
    (dict(kind="band", reference="e1", threshold_a=0.2), "band requires threshold_b"),
    (dict(kind="band", reference="e1", threshold_a=0.2, threshold_b=1.5),
     "threshold_b must lie strictly inside (0, 1), got 1.5"),
    (dict(kind="max_angle", reference="e1", threshold_a=0.2, threshold_b=0.5),
     "threshold_b only applies to band constraints"),
    (dict(kind="nearest_axis", axis_j=2.7), "axis_j must be an integer, got 2.7"),
    (dict(kind="nearest_axis", axis_j="x"), "axis_j must be an integer, got 'x'"),
    (dict(kind="band", reference="e1", threshold_a=0.2, threshold_b="y"),
     "threshold_b must be a real number, got 'y'"),
    (dict(kind="band", reference="e1", threshold_a=[0.2], threshold_b=0.5),
     "threshold_a must be a real number, got [0.2]"),
])
def test_constraint_spec_diagnostics(fields, message):
    with pytest.raises(SpecError) as exc:
        make(constraints=(ConstraintSpec(**fields),))
    assert exc.value.errors == [f"constraint 1: {message}"]


def test_numpy_bool_flags_make_the_bool_built_spec():
    got = make(meta_q=4, meta_t=1, use_meta=np.True_, dissimilar=np.True_)
    want = make(meta_q=4, meta_t=1, use_meta=True, dissimilar=True)
    assert got == want and hash(got) == hash(want)
    assert type(got.use_meta) is bool and type(got.dissimilar) is bool


@pytest.mark.parametrize("seed", [2.5, "1", None, -1])
def test_generate_suite_seed_is_a_nonnegative_integer(seed):
    with pytest.raises(SpecError) as exc:
        generate_suite(seed, 1, {"objectives": [3]})
    assert exc.value.errors == [f"suite seed must be an integer >= 0, got {seed!r}"]


def test_generate_suite_numpy_seed_and_count_draw_the_int_suite():
    ranges = {"objectives": [2, 3, 4], "distance": ["robust", "deceptive"]}
    assert generate_suite(np.int64(7), np.uint8(5), ranges) == generate_suite(7, 5, ranges)
