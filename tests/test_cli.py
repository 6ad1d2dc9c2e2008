"""Command-line interface: subcommands, CSV formats, exit codes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpdbench
from gpdbench import evaluate_batch, front_sample, parse_spec
from gpdbench.cli import _read_rows, main

M2_SPEC = "objectives = 2\ndistance_vars = 1\ndistance = deceptive\nnorm_p = 2\n"
M3_SPEC = ("objectives = 3\ndistance_vars = 10\ndistance = deceptive\n"
           "meta_q = 10\nmeta_t = 4\nnorm_p = auto\n")


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = int(exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return np.array([[float(v) for v in row] for row in rows])


@pytest.fixture
def m2(tmp_path):
    p = tmp_path / "m2.spec"
    p.write_text(M2_SPEC)
    return p


def test_new_echoes_canonical_spec_with_derived_sizes(tmp_path, capsys):
    p = tmp_path / "big.spec"
    p.write_text(M3_SPEC)
    code, out, _ = run(["new", "--spec", str(p)], capsys)
    assert code == 0
    assert "# R = 24" in out
    assert "# N = 34" in out
    assert "# p = 2" in out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    assert parse_spec(body) == parse_spec(M3_SPEC)


def test_new_invalid_spec_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.spec"
    p.write_text("objectives = 3\ndistance_vars = 2\ndistance = robust\n"
                 "meta_q = 4\nmeta_t = 2\n")
    code, _, err = run(["new", "--spec", str(p)], capsys)
    assert code == 2
    assert "2t+1 < q" in err


def test_new_superscript_axis_label_exits_2(tmp_path, capsys):
    p = tmp_path / "axis.spec"
    p.write_text("objectives = 3\ndistance_vars = 2\ndistance = robust\n"
                 "distance_reference = e\u00b2\n", encoding="utf-8")
    code, _, err = run(["new", "--spec", str(p)], capsys)
    assert code == 2
    assert "distance_reference: cannot read reference 'e\u00b2'" in err


def test_eval_round_trip(tmp_path, capsys, m2):
    src = tmp_path / "pts.csv"
    src.write_text("# comment line\n0,0.5\n\n0,0\n")
    dst = tmp_path / "out.csv"
    code, _, _ = run(["eval", "--spec", str(m2), "--in", str(src),
                      "--out", str(dst)], capsys)
    assert code == 0
    lines = dst.read_text().splitlines()
    assert lines[0] == "# f1,f2,feasible"
    got = read_rows(dst)
    np.testing.assert_allclose(got, [[1.0, 0.0, 1.0], [6.0, 0.0, 1.0]])


def test_eval_csv_floats_round_trip_bitwise(tmp_path, capsys, m2):
    rng = np.random.default_rng(50)
    rows = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(0, 1, 50)])
    src = tmp_path / "pts.csv"
    src.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rows) + "\n")
    dst = tmp_path / "out.csv"
    assert run(["eval", "--spec", str(m2), "--in", str(src),
                "--out", str(dst)], capsys)[0] == 0
    spec = parse_spec(M2_SPEC)
    want = np.array([ev.objectives for ev in evaluate_batch(rows, spec)])
    got = read_rows(dst)
    # %.17g serialization is lossless for doubles
    assert np.array_equal(got[:, :2], want)


def test_eval_empty_input_writes_header_only(tmp_path, capsys, m2):
    src = tmp_path / "pts.csv"
    src.write_text("# nothing here\n")
    dst = tmp_path / "out.csv"
    assert run(["eval", "--spec", str(m2), "--in", str(src),
                "--out", str(dst)], capsys)[0] == 0
    assert dst.read_text() == "# f1,f2,feasible\n"


def test_eval_bad_row_exits_3_with_one_based_row(tmp_path, capsys, m2):
    src = tmp_path / "pts.csv"
    src.write_text("0,0.5\n0\n")
    dst = tmp_path / "out.csv"
    code, _, err = run(["eval", "--spec", str(m2), "--in", str(src),
                        "--out", str(dst)], capsys)
    assert code == 3
    assert "data row 2" in err


def test_eval_missing_input_exits_3(tmp_path, capsys, m2):
    code, _, err = run(["eval", "--spec", str(m2),
                        "--in", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 3
    assert err.startswith("error:")


def float_rows(path):
    """The reader's contract: strip lines, skip blank and '#' ones, float() each value."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    return [[float(v) for v in line.split(",")]
            for line in lines if line and not line.startswith("#")]


@pytest.mark.parametrize("text, one_pass", [
    ("0.25,0.5\r\n-0.75,1\r\n", True),
    ("# x1,x2\n\n0,0.5\n   \n# between\n1,0\n", True),
    ("\u00a00.5\t,\t0.25\u00a0\n\t-1 , 1\n", True),
    ("inf,-Infinity,nan\n-nan,-0,0\n", True),
    ("1e400,1e-400,5e-324\n"
     "2.2250738585072009e-308,-1e-320,-4.9406564584124654e-324\n", True),
    ("1_0,0.5\n\u0661,0\n", False),
    ("0,0.5\n0\n1,2,3\n", False),
    ("0.5\n0.25\n-1\n", True),
    ("0.1,0.2,0.3,0.4\n", True),
    ("# only\n# comments\n", False),
], ids=["crlf", "blank_and_comments", "nbsp_tab_padding", "specials", "range",
        "float_only_spellings", "ragged", "one_column", "one_row", "comment_only"])
def test_read_rows_gives_the_doubles_of_float(tmp_path, text, one_pass):
    src = tmp_path / "rows.csv"
    src.write_bytes(text.encode("utf-8"))
    got = _read_rows(str(src))
    want = float_rows(src)
    assert isinstance(got, np.ndarray) == one_pass
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # bytes compare the sign bit of zeros and NaNs as well
        assert np.asarray(g, dtype=float).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("bad", ["0,0.5,", "0,,0.5", "0,0.5 # note", "0,abc", "0;0.5"])
def test_read_rows_names_the_unparsable_data_row(tmp_path, bad):
    src = tmp_path / "rows.csv"
    src.write_text(f"# x1,x2\n0,0.5\n\n{bad}\n0,0.25\n")
    with pytest.raises(ValueError) as info:
        _read_rows(str(src))
    assert str(info.value) == f"{src}: data row 2: cannot parse {bad!r}"


@pytest.mark.parametrize("text, eval_error, igd_error", [
    ("0,0.5\n0,0.5,\n", "{path}: data row 2: cannot parse '0,0.5,'",
     "{path}: data row 2: cannot parse '0,0.5,'"),
    ("0,0.5\n0\n", "data row 2: decision vector has 1 coordinates, expected 2",
     "{path}: data row 2: width 1 does not match 2"),
    ("0,0.5,1\n0,0.5,1\n", "data row 1: decision vector has 3 coordinates, expected 2",
     None),
    ("0,0.5\n0,2\n", "data row 2: coordinate 2 is 2, outside [0, 1]", None),
    ("# only a comment\n", None, "{path}: no data rows"),
], ids=["trailing_comma", "ragged", "wide", "out_of_box", "comment_only"])
def test_cli_readers_keep_exit_codes_and_error_lines(tmp_path, capsys, m2, text,
                                                      eval_error, igd_error):
    src = tmp_path / "rows.csv"
    src.write_text(text)
    commands = [
        (["eval", "--spec", str(m2), "--in", str(src),
          "--out", str(tmp_path / "out.csv")], eval_error),
        (["perturb", "--spec", str(m2), "--in", str(src), "--radius", "0.1",
          "--samples", "5"], eval_error),
        (["igd", "--ref", str(src), "--approx", str(src)], igd_error),
    ]
    for argv, error in commands:
        code, out, err = run(argv, capsys)
        if error is None:
            assert (code, err) == (0, ""), argv[0]
        else:
            assert (code, out) == (3, ""), argv[0]
            assert err == f"error: {error.format(path=src)}\n", argv[0]


def test_front_rows_match_library(tmp_path, capsys, m2):
    dst = tmp_path / "front.csv"
    code, _, _ = run(["front", "--spec", str(m2), "--resolution", "25",
                      "--out", str(dst)], capsys)
    assert code == 0
    got = read_rows(dst)
    want = front_sample(parse_spec(M2_SPEC), 25).points
    assert np.array_equal(got, want)


def test_front_default_resolution_is_bounded_at_m4(tmp_path, capsys):
    spec = tmp_path / "m4.spec"
    spec.write_text("objectives = 4\ndistance_vars = 2\ndistance = deceptive\n")
    dst = tmp_path / "front.csv"
    code, _, _ = run(["front", "--spec", str(spec), "--out", str(dst)], capsys)
    assert code == 0
    got = read_rows(dst)
    assert got.shape[1] == 4
    assert 0 < got.shape[0] <= 9 ** 3


@pytest.mark.parametrize("raised, message", [
    (MemoryError("Unable to allocate 745. MiB for an array with shape (100000000,)"),
     "error: out of memory: Unable to allocate 745. MiB for an array with shape (100000000,)"),
    (MemoryError(), "error: out of memory")], ids=["numpy", "bare"])
def test_out_of_memory_exits_3_with_one_error_line(tmp_path, capsys, m2, monkeypatch,
                                                   raised, message):
    def exhausted(spec, n):
        raise raised

    monkeypatch.setattr(gpdbench.cli, "pareto_set_sample", exhausted)
    code, out, err = run(["pset", "--spec", str(m2), "--n", "100000000",
                          "--out", str(tmp_path / "pset.csv")], capsys)
    assert code == 3
    assert out == ""
    assert err == message + "\n"


def test_pset_row_shape(tmp_path, capsys, m2):
    dst = tmp_path / "pset.csv"
    assert run(["pset", "--spec", str(m2), "--n", "6",
                "--out", str(dst)], capsys)[0] == 0
    got = read_rows(dst)
    assert got.shape == (6, 2)
    assert np.all(np.abs(got[:, 0]) <= 1.0)
    assert np.all((got[:, 1] >= 0.0) & (got[:, 1] <= 1.0))


def test_igd_of_front_with_itself_is_zero(tmp_path, capsys, m2):
    dst = tmp_path / "front.csv"
    run(["front", "--spec", str(m2), "--resolution", "10",
         "--out", str(dst)], capsys)
    code, out, _ = run(["igd", "--ref", str(dst), "--approx", str(dst)], capsys)
    assert code == 0
    assert out.strip() == "0"


def test_suite_writes_count_files(tmp_path, capsys):
    ranges = tmp_path / "ranges.txt"
    ranges.write_text("objectives = 2..4\ndistance_vars = 2..6\n"
                      "distance = deceptive, robust\n")
    out_dir = tmp_path / "suite"
    code, out, _ = run(["suite", "--ranges", str(ranges), "--seed", "7",
                        "--count", "4", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    assert "wrote 4 instance files" in out
    files = sorted(out_dir.glob("instance_*.spec"))
    assert len(files) == 4
    for f in files:
        s = parse_spec(f.read_text())
        assert 2 <= s.objectives <= 4


def test_suite_deterministic(tmp_path, capsys):
    ranges = tmp_path / "ranges.txt"
    ranges.write_text("objectives = 2..4\ndistance_vars = 2..6\n"
                      "distance = deceptive, robust\n")
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        run(["suite", "--ranges", str(ranges), "--seed", "3",
             "--count", "3", "--out-dir", str(d)], capsys)
        dirs.append(d)
    for f in sorted(dirs[0].glob("*.spec")):
        assert f.read_bytes() == (dirs[1] / f.name).read_bytes()


def test_perturb_stdout_matches_out_file(tmp_path, capsys):
    spec = tmp_path / "robust.spec"
    spec.write_text("objectives = 2\ndistance_vars = 2\ndistance = robust\n")
    src = tmp_path / "pts.csv"
    src.write_text("0.3,0.2,0.2\n0.3,0.600066066066066,0.600066066066066\n")
    code, out, _ = run(["perturb", "--spec", str(spec), "--in", str(src),
                        "--radius", "0.1", "--samples", "100", "--seed", "11"],
                       capsys)
    assert code == 0
    assert out.startswith("# worst,mean\n")
    dst = tmp_path / "rep.csv"
    run(["perturb", "--spec", str(spec), "--in", str(src), "--radius", "0.1",
         "--samples", "100", "--seed", "11", "--out", str(dst)], capsys)
    assert dst.read_text() == out
    worst = read_rows(dst)[:, 0]
    assert worst[1] > 10 * worst[0]  # needle sits under the noise, plateau does not


@pytest.mark.parametrize("text", [
    "objectives = 2\ndistance_vars = 2\ndistance = robust\n",
    M3_SPEC + "dissimilar = true\n\n[constraint]\ntype = band\nreference = e2\n"
              "threshold_a = 0.2\nthreshold_b = 0.6\n",
], ids=["m2-robust", "m3-band-dissimilar"])
def test_perturb_output_is_the_per_row_library_reports(tmp_path, capsys,
                                                       monkeypatch, text):
    spec = parse_spec(text)
    rng = np.random.default_rng(4)
    lo = np.r_[np.full(spec.position_dim, -1.0), np.zeros(spec.distance_vars)]
    rows = np.vstack([gpdbench.pareto_set_sample(spec, 3).vectors,
                      rng.uniform(lo, 1.0, size=(4, spec.total_dim))])
    (tmp_path / "p.spec").write_text(text)
    src = tmp_path / "pts.csv"
    src.write_text("".join(",".join(format(v, ".17g") for v in row) + "\n"
                           for row in rows))
    want = "# worst,mean\n" + "".join(
        f"{r.worst:.17g},{r.mean:.17g}\n"
        for r in (gpdbench.perturb_experiment(row, 0.07, 50, spec, seed=9)
                  for row in rows))

    def no_second_evaluation(*args):
        raise AssertionError("perturb evaluated a row again")

    # The command reuses its batch evaluation as every row's base.
    monkeypatch.setattr(gpdbench.reference, "evaluate", no_second_evaluation)
    code, out, _ = run(["perturb", "--spec", str(tmp_path / "p.spec"), "--in", str(src),
                        "--radius", "0.07", "--samples", "50", "--seed", "9"], capsys)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("second_row, message", [
    ("0.3,2,0.5", "data row 2: coordinate 2 is 2, outside [0, 1]"),
    ("0.3,0.5", "data row 2: decision vector has 2 coordinates, expected 3"),
])
def test_perturb_bad_row_exits_3_with_one_based_row(tmp_path, capsys,
                                                    second_row, message):
    spec = tmp_path / "robust.spec"
    spec.write_text("objectives = 2\ndistance_vars = 2\ndistance = robust\n")
    src = tmp_path / "pts.csv"
    src.write_text(f"# x1,x2,x3\n0.3,0.2,0.2\n{second_row}\n")
    code, out, err = run(["perturb", "--spec", str(spec), "--in", str(src),
                          "--radius", "0.1", "--samples", "10"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("radius", ["inf", "1e308", "nan", "0"])
def test_perturb_radius_out_of_range_exits_3(tmp_path, capsys, radius):
    spec = tmp_path / "robust.spec"
    spec.write_text("objectives = 2\ndistance_vars = 2\ndistance = robust\n")
    src = tmp_path / "pts.csv"
    src.write_text("0.3,0.2,0.2\n")
    code, out, err = run(["perturb", "--spec", str(spec), "--in", str(src),
                          "--radius", radius, "--samples", "5"], capsys)
    assert code == 3
    assert out == ""
    bound = "(0, 8.988465674311579e+307]"  # half the largest double
    assert err == f"error: perturbation radius must lie in {bound}, got {float(radius)}\n"


@pytest.mark.parametrize("radius, samples", [("0", "5"), ("0.1", "0")])
@pytest.mark.parametrize("data", ["# x1,x2,x3\n", "# x1,x2,x3\n0.3,2,0.5\n"],
                         ids=["comment-only", "bad-row"])
def test_perturb_checks_flags_before_any_row(tmp_path, capsys, radius, samples, data):
    text = "objectives = 2\ndistance_vars = 2\ndistance = robust\n"
    (tmp_path / "robust.spec").write_text(text)
    src = tmp_path / "pts.csv"
    src.write_text(data)
    with pytest.raises(ValueError) as library:
        gpdbench.perturb_experiment([0.3, 0.2, 0.2], float(radius), int(samples),
                                    parse_spec(text))
    code, out, err = run(["perturb", "--spec", str(tmp_path / "robust.spec"),
                          "--in", str(src), "--radius", radius, "--samples", samples],
                         capsys)
    assert (code, out, err) == (3, "", f"error: {library.value}\n")


def test_perturb_of_a_comment_only_file_prints_the_header(tmp_path, capsys):
    spec = tmp_path / "robust.spec"
    spec.write_text("objectives = 2\ndistance_vars = 2\ndistance = robust\n")
    src = tmp_path / "pts.csv"
    src.write_text("# x1,x2,x3\n")
    code, out, err = run(["perturb", "--spec", str(spec), "--in", str(src),
                          "--radius", "0.1", "--samples", "5"], capsys)
    assert (code, out, err) == (0, "# worst,mean\n", "")


def test_search_deterministic(tmp_path, capsys, m2):
    outs = []
    for name in ("a.csv", "b.csv"):
        dst = tmp_path / name
        code, out, _ = run(["search", "--spec", str(m2), "--budget", "2000",
                            "--seed", "9", "--out", str(dst)], capsys)
        assert code == 0
        outs.append((out, dst.read_bytes()))
    assert outs[0] == outs[1]
    assert "feasible = 2000" in outs[0][0]
    assert "igd = " in outs[0][0]


def test_search_with_an_empty_front_warns_and_omits_igd(tmp_path, capsys):
    # A band too thin for a resolution-2 front: some sampled rows are
    # feasible, but no front point is.
    p = tmp_path / "thin.spec"
    p.write_text("objectives = 3\ndistance_vars = 2\ndistance = robust\n\n"
                 "[constraint]\ntype = band\nreference = diagonal\n"
                 "threshold_a = 0.5\nthreshold_b = 0.5001\n")
    dst = tmp_path / "archive.csv"
    code, out, err = run(["search", "--spec", str(p), "--budget", "20000",
                          "--resolution", "2", "--out", str(dst)], capsys)
    assert code == 0
    assert err == "warning: feasible front is empty\n"
    assert out == "feasible = 1\narchive = 1\n"
    assert read_rows(dst).shape == (1, 3)


def test_usage_errors_exit_1(tmp_path, capsys, m2):
    assert run(["bogus"], capsys)[0] == 1
    assert run([], capsys)[0] == 1
    assert run(["front", "--spec", str(m2)], capsys)[0] == 1  # --out missing
    assert run(["eval", "--spec", str(m2), "--nope"], capsys)[0] == 1


@pytest.mark.parametrize("command", ["suite", "perturb", "search"])
def test_negative_seed_is_a_usage_error(command, tmp_path, capsys, m2):
    (tmp_path / "ranges.txt").write_text("objectives = 2..3\n")
    (tmp_path / "x.csv").write_text("0.3,0.5\n")
    flags = {"suite": ["--count", "1", "--ranges", str(tmp_path / "ranges.txt"),
                       "--out-dir", str(tmp_path / "suite")],
             "perturb": ["--spec", str(m2), "--in", str(tmp_path / "x.csv"),
                         "--radius", "0.1", "--samples", "5"],
             "search": ["--spec", str(m2), "--budget", "10",
                        "--out", str(tmp_path / "a.csv")]}[command]
    code, _, err = run([command, *flags, "--seed", "-1"], capsys)
    assert code == 1
    assert "argument --seed: must be a nonnegative integer, got -1" in err
    assert not any(p.name in ("suite", "a.csv") for p in tmp_path.iterdir())


def pyproject_entry(pyproject_text, table, key):
    """The string value of key in pyproject's [table], e.g. table 'project.scripts'."""
    if sys.version_info >= (3, 11):
        import tomllib
        value = tomllib.loads(pyproject_text)
        for name in table.split("."):
            value = value[name]
        return value[key]
    section = None  # Python 3.10 has no tomllib: read the one line
    for line in pyproject_text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == f"[{table}]" and line.partition("=")[0].strip() == key:
            return line.partition("=")[2].strip().strip('"')
    return None


def package_env():
    """Environment that imports gpdbench from wherever this test did."""
    src = str(Path(gpdbench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_is_wired(tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert pyproject_entry(pyproject.read_text(), "project.scripts",
                           "gpdbench") == "gpdbench.cli:main"
    p = tmp_path / "m2.spec"
    p.write_text(M2_SPEC)
    proc = subprocess.run([sys.executable, "-m", "gpdbench", "new", "--spec", str(p)],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# N = 2" in proc.stdout


def test_library_parses_under_the_declared_python_floor():
    # Tier-1 runs on a newer Python than requires-python promises; parsing
    # with the floor's grammar catches newer syntax such as except*.
    root = Path(__file__).resolve().parents[1]
    floor = pyproject_entry((root / "pyproject.toml").read_text(), "project",
                            "requires-python")
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", floor).groups()
    sources = sorted((root / "src" / "gpdbench").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(int(major), int(minor)))


def test_import_loads_no_scipy():
    # The runtime dependency is numpy alone; scipy is a test-only oracle.
    code = ("import sys, gpdbench, gpdbench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
