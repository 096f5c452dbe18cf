#!/usr/bin/env python
"""Check that the tests named as catching each mutant of the table still catch it.

    python3 scripts/mutants.py

A mutant is one exact-text edit of one file under ``src/``, and the test ids
expected to fail on it.  For each mutant of the table, the script copies the whole tree to a temporary directory (a copy of ``src/`` alone
would not do: ``pyproject.toml`` puts ``src`` on pytest's path, so pytest would
test the unmutated package), applies the edit there, and runs the mutant's test
ids with ``--hypothesis-seed=0``.  It prints, per mutant, with the time taken:

* ``caught``: some named test failed;
* ``survived``: every named test passed;
* ``stale``: the old text does not occur exactly once, or pytest could not run
  the ids (a test renamed or gone).

The named tests first run once on an unmutated copy, which must pass.  Exits 1
if a mutant survived or is stale, or if the unmutated copy fails.  A survivor
stays in the table, marked with the reason it survives; it is never dropped to
make the run pass.
"""

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
                              ".work")
CORE, METAMORPHIC = "tests/test_core.py::", "tests/test_metamorphic.py::"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("the interval-graph constructor accepts touching runs", "src/tempnet/core.py",
           "                if a <= end:", "                if a < end:",
           (CORE + "test_interval_graph_rejects_a_duplicate_edge_a_negative_latency_and_an_empty_edge",)),
    Mutant("_restrict keeps an edge with no run", "src/tempnet/core.py",
           "        if kept:\n            clipped[e] = kept", "        clipped[e] = kept",
           (CORE + "test_every_derived_graph_passes_its_validating_constructor",)),
    Mutant("relabel.run takes an interval graph", "src/tempnet/relabel.py",
           'if not _require_sequence(seq, "relabeling runs").nodes:', "if not seq.nodes:",
           (CORE + "test_an_operation_given_the_other_time_model_names_itself[relabel.run]",)),
    Mutant("supports_hop looks its pair up as given", "src/tempnet/core.py",
           "g.edges.get(edge(*e), ())", "g.edges.get(e, ())",
           (CORE + "test_supports_hop_is_closed_at_interval_ends",)),
    Mutant("extremal reads only the first start's shortest passing window", "src/tempnet/hierarchy.py",
           "if q[delta - r] <= r), None)", "if q[0] <= r), None)",
           (METAMORPHIC + "test_reversing_the_snapshots_transposes_the_closures_and_keeps_the_diameters",)),
)


def run(mutant: Mutant | None, tests) -> int:
    """pytest's exit code on the named tests in a copy of the tree with the mutant's edit (None:
    no edit), or -1 when the old text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if mutant is not None:
            path = tree / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return -1
            path.write_text(text.replace(mutant.old, mutant.new))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
        return subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    if run(None, sorted({t for m in MUTANTS for t in m.tests})) != 0:
        print("the unmutated tree fails the named tests", file=sys.stderr)
        return 1
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        status = {0: "survived", 1: "caught"}.get(run(mutant, mutant.tests), "stale")
        print(f"{status:9} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        bad += status != "caught"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
