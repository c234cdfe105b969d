"""Compare the suite outputs of this checkout with those of another one, byte
for byte.

Runs the linreg, dnn and rover suites at seed 1337 from each tree's src/, at
the bench size (2, 2 and 1 trials) and at the default size, one process at a
time, and prints one `cmp` verdict per output file: for a file that differs,
the first differing line and the number of differing lines, or the two line
counts if they differ. Exits 1 if any file differs or is missing on one side.

    python tools/compare_outputs.py OTHER_CHECKOUT [--work DIR]
"""
from __future__ import annotations

import argparse
import filecmp
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1337
SUITES = ("linreg", "dnn", "rover")
SIZES = {"bench": {"linreg": 2, "dnn": 2, "rover": 1}, "default": {}}
RUN = "import sys; from fastslow.cli import main; sys.exit(main(sys.argv[1:]))"


def run_suite(tree: Path, suite: str, trials: int | None, out: Path) -> None:
    argv = [sys.executable, "-c", RUN, suite, "--seed", str(SEED), "--out", str(out)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)


def where_differs(a: Path, b: Path) -> str:
    """The first differing line of two files and the number of differing
    lines (1-based, split at newlines), or their line counts if those differ."""
    first = n_diff = n_a = n_b = 0
    with a.open("rb") as fa, b.open("rb") as fb:
        for i, (x, y) in enumerate(itertools.zip_longest(fa, fb), 1):
            n_a, n_b = n_a + (x is not None), n_b + (y is not None)
            if x != y:
                n_diff += 1
                first = first or i
    if n_a != n_b:
        return f"DIFFERS: {n_a} lines in this tree, {n_b} in the other"
    return f"DIFFERS from line {first}, in {n_diff} of {n_a} lines"


def compare(a: Path, b: Path) -> list[tuple[str, str]]:
    """(file name, verdict) for every file either directory holds."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    verdicts = []
    for name in names:
        if not (a / name).exists() or not (b / name).exists():
            verdicts.append((name, "missing in " + ("this tree" if not (a / name).exists() else "the other tree")))
        else:
            same = filecmp.cmp(a / name, b / name, shallow=False)
            verdicts.append((name, "identical" if same else where_differs(a / name, b / name)))
    return verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout (a directory holding src/fastslow)")
    parser.add_argument("--work", type=Path, help="directory for the outputs (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "fastslow").is_dir():
        parser.error(f"{args.other} holds no src/fastslow")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        n_files = n_same = 0
        for size in SIZES:
            for suite in SUITES:
                dirs = []
                for side, tree in (("this", ROOT), ("other", args.other.resolve())):
                    out = work / size / suite / side
                    run_suite(tree, suite, SIZES[size].get(suite), out)
                    dirs.append(out)
                for name, verdict in compare(*dirs):
                    print(f"{size:8} {suite:7} {name:18} {verdict}")
                    n_files += 1
                    n_same += verdict == "identical"
    print(f"{n_same} of {n_files} files identical")
    return 0 if n_same == n_files else 1


if __name__ == "__main__":
    sys.exit(main())
