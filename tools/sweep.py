"""Every gradient check at every seed of a range: the checks that are not ok, and a summary.

Run from the repository root::

    PYTHONPATH=src python3 tools/sweep.py --seeds 21-1020

Each seed runs every check of ``verify.checks_for_scope("all", seed)`` in
this process.  The sweep prints one line per check that is not ok, the
check line of ``edgeneck gradcheck`` after its seed, then a summary: checks
run, not ok, skipped probes, and the worst clean error, the largest
``max_rel_err`` of a check that is ok, with its seed and check.  It exits 1
if any check is not ok.
"""

from __future__ import annotations

import argparse
import sys

from bench_pairs import parse_seeds
from edgeneck.verify import checks_for_scope, run_checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="A or A-B")
    args = parser.parse_args(argv)
    runs = not_ok = skipped = 0
    worst, worst_at = 0.0, "none"
    for seed in parse_seeds(args.seeds):
        for label, run in checks_for_scope("all", seed):
            report = run()
            runs += 1
            skipped += report.skipped
            if not report.ok:
                not_ok += 1
                run_checks([(label, lambda: report)],
                           emit=lambda line: print(f"seed {seed} {line}"))
            elif report.max_rel_err > worst:
                worst, worst_at = report.max_rel_err, f"seed {seed} {label}"
    print(f"seeds {args.seeds}: {runs} checks run, {not_ok} not ok, {skipped} skipped probes, "
          f"worst clean error {worst:.3e} ({worst_at})")
    return 1 if not_ok else 0


if __name__ == "__main__":
    sys.exit(main())
