"""Command line surface.

Every command is deterministic given its flags and seeds, and all numeric
output uses 17 significant digits so doubles survive a write/read round trip.

    gpdbench new --spec problem.spec
    gpdbench eval --spec problem.spec --in x.csv --out f.csv
    gpdbench front --spec problem.spec [--resolution N] --out front.csv
    gpdbench pset --spec problem.spec --n 500 --out pset.csv
    gpdbench suite --seed 7 --count 20 --ranges ranges.txt --out-dir suite/
    gpdbench perturb --spec problem.spec --in x.csv --radius 0.1 --samples 500
    gpdbench igd --ref front.csv --approx archive.csv
    gpdbench search --spec problem.spec --budget 20000 --seed 1 --out arch.csv

Exit codes: 0 success, 1 usage error, 2 invalid specification, 3 data error
(unreadable file, malformed row, out-of-box coordinate) or a request too
large for memory.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .evaluator import BatchError, evaluate_arrays
from .reference import (_check_perturbation, _perturbed, dominance_filter,
                        front_sample, igd, pareto_set_sample)
from .spec import (SpecError, _fmt, generate_suite, parse_ranges, parse_spec,
                   render_spec)


class _Parser(argparse.ArgumentParser):
    # argparse reserves status 2 for usage problems; this tool uses 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _read_rows(path: str) -> np.ndarray | list[list[float]]:
    """Read a CSV of reals, skipping blank lines and lines that start with '#'.

    Values follow Python float() syntax.  The data rows are parsed in one
    pass into a (rows, width) array; only when that fails are they parsed
    again line by line with float(), which returns a list of rows that may
    be ragged, or names the first data row that cannot be parsed.  Width
    contracts are enforced by the consumer so the error can name the
    expected width.  A file without data rows gives [].  A UTF-8 byte-order
    mark at the start of the file is skipped, as in spec and ranges files.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [line for line in map(str.strip, fh)
                 if line and not line.startswith("#")]
    if not lines:
        return []
    try:
        # comments=None: a '#' after the start of a line is a parse error, as
        # it is for float().
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        pass
    rows: list[list[float]] = []
    for data_row, line in enumerate(lines, start=1):
        try:
            rows.append([float(part) for part in line.split(",")])
        except ValueError:
            raise ValueError(
                f"{path}: data row {data_row}: cannot parse {line!r}") from None
    return rows


def _as_matrix(rows: np.ndarray | list[list[float]], path: str) -> np.ndarray:
    if len(rows) == 0:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(
                f"{path}: data row {i}: width {len(row)} does not match {width}")
    return np.asarray(rows, dtype=float)


def _write_rows(path: str | None, header: list[str], rows) -> None:
    """A '#' header line, then 17-digit rows; to stdout when path is None."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        fh.write("# " + ",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n"
                      for row in np.asarray(rows, dtype=float).tolist())


def _load_spec(path: str):
    return parse_spec(Path(path).read_text(encoding="utf-8-sig"))


def cmd_new(args) -> int:
    spec = _load_spec(args.spec)
    sys.stdout.write(render_spec(spec))
    print(f"# R = {spec.position_dim}")
    print(f"# N = {spec.total_dim}")
    print(f"# p = {_fmt(spec.norm_p)}")
    return 0


def cmd_eval(args) -> int:
    spec = _load_spec(args.spec)
    ev = evaluate_arrays(_read_rows(args.infile), spec)
    m = spec.objectives
    c = len(spec.constraints)
    header = ([f"f{j}" for j in range(1, m + 1)]
              + [f"phi{j}" for j in range(1, c + 1)]
              + [f"violation{j}" for j in range(1, c + 1)]
              + ["feasible"])
    table = np.column_stack([ev.objectives, ev.phi_per_constraint,
                             ev.violations, ev.feasible.astype(float)])
    _write_rows(args.out, header, table)
    return 0


def _front(args, spec):
    """The reference front at --resolution when given, else an M-aware default.

    The default keeps the front at a few hundred points for every M, so front
    and search finish in bounded time.  An empty front prints a warning.
    """
    resolution = args.resolution
    if resolution is None:
        resolution = {2: 200, 3: 24, 4: 9}.get(spec.objectives, 9)
    front = front_sample(spec, resolution)
    if front.points.shape[0] == 0:
        print("warning: feasible front is empty", file=sys.stderr)
    return front


def cmd_front(args) -> int:
    spec = _load_spec(args.spec)
    header = [f"f{j}" for j in range(1, spec.objectives + 1)]
    _write_rows(args.out, header, _front(args, spec).points)
    return 0


def cmd_pset(args) -> int:
    spec = _load_spec(args.spec)
    sample = pareto_set_sample(spec, args.n)
    header = [f"x{j}" for j in range(1, spec.total_dim + 1)]
    _write_rows(args.out, header, sample.vectors)
    return 0


def cmd_suite(args) -> int:
    ranges = parse_ranges(Path(args.ranges).read_text(encoding="utf-8-sig"))
    specs = generate_suite(args.seed, args.count, ranges)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(specs, start=1):
        (out_dir / f"instance_{i:03d}.spec").write_text(
            render_spec(spec), encoding="utf-8")
    print(f"wrote {len(specs)} instance files to {args.out_dir}")
    return 0


def cmd_perturb(args) -> int:
    spec = _load_spec(args.spec)
    _check_perturbation(args.radius, args.samples)  # before any row is read
    rows = _read_rows(args.infile)
    ev = evaluate_arrays(rows, spec)  # a bad row fails here, named by its number
    pairs = [_perturbed(x, f_p, phi, f_0, args.radius, args.samples, spec, args.seed)
             for x, f_p, phi, f_0 in zip(rows, ev.position_point, ev.distance_phi, ev.objectives)]
    _write_rows(args.out, ["worst", "mean"], pairs)
    return 0


def cmd_igd(args) -> int:
    reference = _as_matrix(_read_rows(args.ref), args.ref)
    approximation = _as_matrix(_read_rows(args.approx), args.approx)
    print(_fmt(igd(approximation, reference)))
    return 0


def cmd_search(args) -> int:
    spec = _load_spec(args.spec)
    if args.budget < 1:
        raise ValueError(f"budget must be at least 1, got {args.budget}")
    rng = np.random.default_rng(args.seed)
    r, s = spec.position_dim, spec.distance_vars
    xs = np.empty((args.budget, spec.total_dim))
    xs[:, :r] = rng.uniform(-1.0, 1.0, size=(args.budget, r))
    xs[:, r:] = rng.uniform(0.0, 1.0, size=(args.budget, s))
    ev = evaluate_arrays(xs, spec)
    feasible = ev.objectives[ev.feasible]
    header = [f"f{j}" for j in range(1, spec.objectives + 1)]
    if len(feasible) == 0:
        _write_rows(args.out, header, [])
        print("feasible = 0")
        return 0
    front = _front(args, spec)
    archive = dominance_filter(feasible)
    _write_rows(args.out, header, archive)
    print(f"feasible = {len(feasible)}")
    print(f"archive = {archive.shape[0]}")
    if front.points.shape[0]:
        print(f"igd = {_fmt(igd(archive, front))}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpdbench",
                     description="Generate, evaluate, and analyze scalable "
                                 "position-distance benchmark instances.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser, required=True)

    p = sub.add_parser("new", help="validate a spec file, print it with derived sizes")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.set_defaults(func=cmd_new)

    p = sub.add_parser("eval", help="evaluate decision-vector rows from CSV")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("front", help="sample the known Pareto front to CSV")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--resolution", type=int, metavar="N")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_front)

    p = sub.add_parser("pset", help="sample distance-optimal decision vectors to CSV, "
                       "not filtered to the Pareto set (see README, Known solutions)")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_pset)

    p = sub.add_parser("suite", help="generate a seeded suite of spec files")
    p.add_argument("--seed", type=_seed, required=True, metavar="N")
    p.add_argument("--count", type=int, required=True, metavar="N")
    p.add_argument("--ranges", required=True, metavar="PATH")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("perturb", help="distance-noise displacement per input row")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--radius", type=float, required=True, metavar="R")
    p.add_argument("--samples", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=_seed, default=0, metavar="N")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("igd", help="inverted generational distance between CSVs")
    p.add_argument("--ref", required=True, metavar="PATH")
    p.add_argument("--approx", required=True, metavar="PATH")
    p.set_defaults(func=cmd_igd)

    p = sub.add_parser("search", help="random-search baseline with an IGD score")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--budget", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=_seed, default=0, metavar="N")
    p.add_argument("--resolution", type=int, metavar="N")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BatchError as err:
        index, message = err.row_errors[0]
        print(f"error: data row {index + 1}: {message}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        # numpy's MemoryError names the failed allocation; a bare one is empty.
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())