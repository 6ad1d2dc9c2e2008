"""Two-dispatch digest gate: do the traced benchmark outputs match a git ref?

    python3 tools/digest_gate.py REF

Exports REF with `git archive` to a temporary directory, then runs

    bench/run.py --workload all --seed 3 --seconds 8 --trace 1

in that copy and in the working tree, each under numpy's default SIMD
dispatch and with the AVX-512 kernels disabled, one run at a time.  Each
run's digests hash the doubles of every benchmark output, so two trees give
the same triple exactly when their outputs are bit-identical under that
dispatch.  Prints the four digest triples with each run's `failed` count,
and exits 1 when either dispatch's triples differ or a run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
BENCH_ARGS = ("--workload", "all", "--seed", "3", "--seconds", "8", "--trace", "1")
DISPATCHES = {"default": None, "avx2": "AVX512_SPR AVX512_ICL X86_V4"}


@contextlib.contextmanager
def exported(ref: str):
    """A temporary directory holding REF's committed files, from `git archive`."""
    with tempfile.TemporaryDirectory(prefix="bench-ref-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=TREE,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)


def final_record(stdout: str) -> dict:
    """The JSON record a bench run prints as its last line."""
    return json.loads(stdout.splitlines()[-1])


def traced_run(root: Path, disabled: str | None) -> tuple[list[str], int | None]:
    """The digests of one traced bench run in order, and its failed count.

    A run that exits nonzero gives its digests so far and None.
    """
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    done = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *BENCH_ARGS],
                          cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    # run_all prefixes each workload's lines with "[name] ".
    digests = [line.rsplit(" = ", 1)[1] for line in lines
               if line.startswith("[") and "] digest = " in line]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return digests, None
    return digests, final_record(done.stdout)["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("ref", help="git ref to compare the working tree against")
    ref = parser.parse_args(argv).ref
    ok = True
    with exported(ref) as ref_tree:
        for dispatch, disabled in DISPATCHES.items():
            triples = []
            for label, root in ((ref, ref_tree), ("working tree", TREE)):
                digests, failed = traced_run(root, disabled)
                print(f"{dispatch:8} {label:12} {' '.join(digests) or '-'} failed {failed}")
                triples.append(digests)
                ok = ok and failed == 0 and len(digests) == 3
            if triples[0] != triples[1]:
                print(f"{dispatch}: digests differ")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
