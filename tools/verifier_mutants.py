"""One-line mutants of src/qrtorsion/verifier.py, and whether tier-1 catches
each one.

Every flag of a verification report should be shown to fail: a mutant that
breaks a flag and leaves the whole suite passing marks a check that no test
can see.  Each mutant is an (anchor, replacement) pair; the anchor is text
that occurs exactly once in verifier.py, and the mutant replaces it.

    python tools/verifier_mutants.py           # every mutant, one by one
    python tools/verifier_mutants.py --check   # anchors only, no tests

The default run copies the repository (without .git and caches) into a
temporary directory for each mutant, applies it there and runs tier-1 with
``-x -q`` on that copy, one process at a time, and prints ``caught`` or
``survived`` per mutant.  Each mutant costs up to one tier-1 run.  The exit
status is 1 when a mutant survives or an anchor is not unique.  Standard
library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src") / "qrtorsion" / "verifier.py"

# (name, anchor, replacement)
MUTANTS = [
    ("ratio-not-inverted",
     "return field.inv(field.from_int(H.torsion_order()))",
     "return field.from_int(H.torsion_order())"),
    ("ratio-squared",
     "return field.inv(field.from_int(H.torsion_order()))",
     "return field.inv(field.pow(field.from_int(H.torsion_order()), 2))"),
    ("page2-dichotomy-forced-true",
     'flags["dichotomy_consistent"] = (formula is not None or',
     'flags["dichotomy_consistent"] = True or (formula is not None or'),
    ("page2-two-path-without-comparison",
     'flags["e1_torsion_identity"] = formula is not None\n'
     '        flags["two_path_torsion"] = formula is not None and direct == formula',
     'flags["e1_torsion_identity"] = formula is not None\n'
     '        flags["two_path_torsion"] = formula is not None'),
    ("page3-b-parity-forced-true",
     'flags["b_parity"] = b % 2 == 0',
     'flags["b_parity"] = True'),
    ("page3-dichotomy-forced-true",
     'flags["dichotomy_consistent"] = inst.form.is_zero_over(F)',
     'flags["dichotomy_consistent"] = True'),
    ("rate-cross-check-forced-true",
     'flags["rate_cross_check"] = r_val == S.closed_form_rate',
     'flags["rate_cross_check"] = True'),
    ("page3-formula-over-r-squared",
     "F.div(S.page1.d1star[1].determinant(),\n"
     "                                           r)",
     "F.div(S.page1.d1star[1].determinant(),\n"
     "                                           F.mul(r, r))"),
    ("q-antisymmetric-forced-true",
     'flags["q_antisymmetric"] = qf.antisymmetric',
     'flags["q_antisymmetric"] = True'),
    ("symmetrized-product-sign-flipped",
     "F.mul(F.from_int(-1), F.mul(F.mul(z[i], z[j]), h))",
     "F.mul(F.mul(z[i], z[j]), h)"),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".benchmarks")


def anchor_errors(source: str):
    """One line per mutant whose anchor does not occur exactly once."""
    return [f"{name}: anchor occurs {source.count(anchor)} times"
            for name, anchor, _ in MUTANTS if source.count(anchor) != 1]


def caught(name: str, anchor: str, replacement: str, source: str) -> bool:
    """Whether tier-1 fails on a copy of the repository with the mutant."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        (copy / TARGET).write_text(source.replace(anchor, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return proc.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only assert that each anchor occurs once")
    args = parser.parse_args(argv)
    source = (ROOT / TARGET).read_text()
    errors = anchor_errors(source)
    for line in errors:
        print(line)
    if errors or args.check:
        if not errors:
            print(f"{len(MUTANTS)} anchors, each found once")
        return 1 if errors else 0
    survived = 0
    for name, anchor, replacement in MUTANTS:
        ok = caught(name, anchor, replacement, source)
        survived += not ok
        print(f"{name}: {'caught' if ok else 'survived'}", flush=True)
    print(f"score {len(MUTANTS) - survived}/{len(MUTANTS)} caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
