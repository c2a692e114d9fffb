"""Negative controls: each row of MUTANTS breaks one law in a copy of the
engine, and a check must then fail.

For every row this script copies `src/` to a temporary directory, replaces
each passage of the row exactly once (inside one method when the row names
it), runs the row's command on the copy and reads the verdict: the mutant
is killed when the command exits 1 and, for a row of `verify`, prints that
row as FAIL.  It prints one line per mutant and exits 1 if any survives; a
passage not found exactly once stops the run.  It takes no arguments:

    python tools/negative_controls.py

Mutation analysis after R. A. DeMillo, R. J. Lipton and F. G. Sayward,
"Hints on test data selection: help for the practicing programmer"
(Computer 11, 1978).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ("-m", "chowmot", "verify", "--seed", "42")


class Mutant(NamedTuple):
    description: str
    path: str  # under src/
    edits: dict  # passage -> replacement
    command: tuple  # arguments to the Python interpreter, run from the repository root
    row: str | None = None  # the `verify` row that must read FAIL
    scope: str | None = None  # the method the passages lie in


MUTANTS = [
    Mutant("a copy of the engine whose degree_zero_rigidify skips the support test on g fails verify at "
           "orbit-rigidification",
           "chowmot/motives.py", {" or any(j < 0 for j in g.indices())": ""},
           VERIFY, "orbit-rigidification"),
    Mutant("a copy of the engine whose transpose shifts the source block by the target's width fails verify at "
           "correspondence-algebra",
           "chowmot/corr.py", {"<< x_bits": "<< y_bits"},
           VERIFY, "correspondence-algebra", scope="transpose"),
    Mutant("a copy of the engine whose mul_todd_power looks up its cached Todd plan without the factor subset "
           "fails verify at identity-kernel",
           "chowmot/chern.py",
           {"_todd_plan(c.variety, s, None if factors is None else tuple(factors))": "_todd_plan(c.variety, s, None)"},
           VERIFY, "identity-kernel"),
    Mutant("a copy of the engine whose external_product joins keys in (x, x', y, y') order fails the "
           "external-product tests (verify --seed 42 does not see it)",
           "chowmot/corr.py",
           {"(k >> x2_bits) << (y_bits + x2_bits + y2_bits) | (k & x2_mask) << y2_bits": "k << (y_bits + y2_bits)",
            "(k >> y2_bits) << (x2_bits + y2_bits) | k & y2_mask": "k"},
           ("-m", "pytest", "-q", "tests/test_corr.py", "-k", "ExternalProduct")),
    Mutant("a copy of the engine whose power_sums drops the power of the denominator on Newton's product terms "
           "fails the rational power-sum tests (verify --seed 42 does not see it)",
           "chowmot/chern.py", {"(-1) ** (i - 1) * den ** (i - 1)": "(-1) ** (i - 1)"},
           ("-m", "pytest", "-q", "tests/test_chern.py", "-k", "rational")),
    Mutant("a copy of the engine whose three-field unchecked constructor swaps two of its stores fails the "
           "constructor tests",
           "chowmot/ring.py", {"d[a], d[b], d[c] = x, y, z": "d[a], d[b], d[c] = y, x, z"},
           ("-m", "pytest", "-q", "tests/test_values.py", "-k", "Unchecked")),
    Mutant("a copy of the engine whose _todd_factor_series takes td(P^n)^s with the exponent s(n+2), not s(n+1), "
           "fails verify at hrr-line-bundles",
           "chowmot/chern.py", {"exponent = Fraction(s) * (n + 1)": "exponent = Fraction(s) * (n + 2)"},
           VERIFY, "hrr-line-bundles", scope="_todd_factor_series"),
    Mutant("a copy of the engine whose _check_sandwiched refuses a correspondence only when both its ends are "
           "wrong fails the end-check tests (verify --seed 42 and every other test do not see it)",
           "chowmot/motives.py", {" or c.target != target.variety": " and c.target != target.variety"},
           ("-m", "pytest", "-q", "tests/test_end_checks.py"), scope="_check_sandwiched"),
    Mutant("a copy of the engine whose _typed lets the CLI's table parser accept a value outside an argument's "
           "choices fails the table-parser agreement tests (verify --seed 42 does not see it)",
           "chowmot/cli.py", {'value not in options.get("choices", (value,))': "False"},
           ("-m", "pytest", "-q", "tests/test_cli.py", "-k", "TableParser"), scope="_typed"),
]


def mutate(text: str, mutant: Mutant) -> str:
    """`text` with each passage of the mutant replaced; each must occur
    exactly once, inside its method when the mutant names one."""
    start, end = 0, len(text)
    if mutant.scope:
        header = f"def {mutant.scope}("
        if (found := text.count(header)) != 1:
            raise SystemExit(f"expected {header!r} once, found it {found} times")
        start = text.index(header)
        nxt = re.compile(r"^[ \t]*def ", re.M).search(text, start + len(header))
        end = nxt.start() if nxt else len(text)
    part = text[start:end]
    for old, new in mutant.edits.items():
        if (found := part.count(old)) != 1:
            raise SystemExit(f"expected {old!r} once, found it {found} times")
        part = part.replace(old, new)
    return text[:start] + part + text[end:]


def killed(mutant: Mutant) -> bool:
    """Run the mutant's command on a mutated copy of `src/`: whether it exits 1
    and, for a `verify` row, prints that row as FAIL."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.path
        path.write_text(mutate(path.read_text(), mutant))
        run = subprocess.run([sys.executable, *mutant.command], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
    fails = mutant.row is None or re.search(rf"^{re.escape(mutant.row)} +FAIL ", run.stdout, re.M)
    if run.returncode == 1 and fails:
        return True
    print(run.stdout + run.stderr, end="")
    return False


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        ok = killed(mutant)
        survivors += not ok
        print(f"{'killed' if ok else 'SURVIVED':8}  {mutant.description}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
