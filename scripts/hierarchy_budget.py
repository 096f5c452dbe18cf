#!/usr/bin/env python
"""Audit operation counts of the sliding-window machinery.

Generates random snapshot sequences, runs both the fixed-length decision and
the extremal search for each supported window property, and prints observed
compose+test counts next to the linear budgets they must respect (6*delta for
decide, 10*delta for extremal).  A row exceeding its budget is a bug: it
reads OVER, and the script exits 1.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tempnet.core import SnapshotSequence, edge, footprint
from tempnet.hierarchy import (
    decide,
    extremal,
    footprint_realization,
    rt_tdiameter,
    tdiameter,
    tinterval,
)


def random_sequence(n, delta, p, rng):
    names = [f"v{i}" for i in range(n)]
    pairs = [edge(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    snaps = tuple(frozenset(e for e in pairs if rng.random() < p)
                  for _ in range(delta))
    return SnapshotSequence(frozenset(names), snaps)


def algebras(seq):
    return {
        "tinterval": tinterval(),
        "realization": footprint_realization(footprint(seq)),
        "tdiam": tdiameter("strict"),
        "rtdiam": rt_tdiameter("strict"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--deltas", type=int, nargs="+", default=[64, 256, 1024])
    ap.add_argument("--p", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    header = (f"{'property':<12} {'delta':>6} {'decide ops':>11} {'<=6d':>6} "
              f"{'extremal ops':>13} {'<=10d':>6} {'value':>6}")
    print(header)
    over = False
    for delta in args.deltas:
        seq = random_sequence(args.n, delta, args.p, rng)
        for name, alg in algebras(seq).items():
            d = decide(alg, seq, max(1, delta // 2))
            d_ops = sum(d.ops.values())
            ex = extremal(alg, seq)
            e_ops = sum(ex.ops.values())
            ok_d = "ok" if d_ops <= 6 * delta else "OVER"
            ok_e = "ok" if e_ops <= 10 * delta else "OVER"
            over = over or "OVER" in (ok_d, ok_e)
            print(f"{name:<12} {delta:>6} {d_ops:>11} {ok_d:>6} "
                  f"{e_ops:>13} {ok_e:>6} {str(ex.value):>6}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
