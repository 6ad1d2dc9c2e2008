"""Command-line interface: subcommands, CSV formats, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpdbench
from gpdbench import evaluate_batch, front_sample, parse_spec
from gpdbench.cli import main

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


def test_usage_errors_exit_1(tmp_path, capsys, m2):
    assert run(["bogus"], capsys)[0] == 1
    assert run([], capsys)[0] == 1
    assert run(["front", "--spec", str(m2)], capsys)[0] == 1  # --out missing
    assert run(["eval", "--spec", str(m2), "--nope"], capsys)[0] == 1


def console_script_target(pyproject_text):
    """The [project.scripts] entry for gpdbench, as 'module:function'."""
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib.loads(pyproject_text)["project"]["scripts"]["gpdbench"]
    section = None  # Python 3.10 has no tomllib: read the one line
    for line in pyproject_text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line.partition("=")[0].strip() == "gpdbench":
            return line.partition("=")[2].strip().strip('"')
    return None


def test_console_script_is_wired(tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert console_script_target(pyproject.read_text()) == "gpdbench.cli:main"
    p = tmp_path / "m2.spec"
    p.write_text(M2_SPEC)
    # Run the package from wherever this test imported it, installed or not.
    src = str(Path(gpdbench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gpdbench", "new", "--spec", str(p)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# N = 2" in proc.stdout
