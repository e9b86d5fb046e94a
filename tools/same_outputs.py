"""Whether two checkouts give the same gradient-check reports, entry by entry.

Run from anywhere, with two checkouts that each hold ``src/edgeneck``::

    python3 tools/same_outputs.py --parent ../parent --change . --seeds 1-20

Each side runs in its own process, with only its own ``src/`` on the import
path, every check of ``verify.checks_for_scope("all", seed)`` at each seed.
Per check it compares the verdict, the ``unprobed`` labels and, entry by
entry, the label, ``probed``, ``skipped``, ``repr(max_rel_err)``,
``worst_coord`` and ``worst_input``.  It prints one line per differing check
and exits 1, or one summary line and exits 0 when every report is equal.
Forward reports, weight dumps and train gradients are not compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import git_head, parse_seeds

REPORTS = """
import json, sys
from edgeneck.verify import checks_for_scope
out = []
for seed in map(int, sys.argv[1:]):
    for label, run in checks_for_scope("all", seed):
        report = run()
        out.append({"check": f"seed {seed} {label}", "ok": report.ok,
                    "unprobed": report.unprobed,
                    "entries": [[e.label, e.probed, e.skipped, repr(e.max_rel_err),
                                 e.worst_coord, e.worst_input] for e in report.entries]})
print(json.dumps(out))
"""

FIELDS = ("label", "probed", "skipped", "max_rel_err", "worst_coord", "worst_input")


def reports(checkout, seeds):
    """The check reports of ``checkout``'s ``src/`` at ``seeds``, keyed by ``seed S label``."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()))
    proc = subprocess.run([sys.executable, "-c", REPORTS, *map(str, seeds)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the check reports of {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return {r["check"]: r for r in json.loads(proc.stdout)}


def differences(parent, change):
    """One line per check whose report differs between the two sides, or is on one side only."""
    lines = []
    for check in sorted(parent.keys() | change.keys()):
        a, b = parent.get(check), change.get(check)
        if a is None or b is None:
            lines.append(f"{check}: only in {'change' if a is None else 'parent'}")
            continue
        fields = [f"{key} {a[key]} -> {b[key]}" for key in ("ok", "unprobed") if a[key] != b[key]]
        if len(a["entries"]) != len(b["entries"]):
            fields.append(f"entries {len(a['entries'])} -> {len(b['entries'])}")
        for old, new in zip(a["entries"], b["entries"]):
            fields += [f"{old[0]}.{name} {x} -> {y}"
                       for name, x, y in zip(FIELDS, old, new) if x != y]
        if fields:
            lines.append(f"{check}: " + "; ".join(fields))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", default="1-20")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    parent, change = reports(args.parent, seeds), reports(args.change, seeds)
    lines = differences(parent, change)
    print(f"parent: {git_head(args.parent)}\nchange: {git_head(args.change)}")
    for line in lines:
        print(line)
    counts = (f"{len(parent)} parent, {len(change)} change, {len(lines)} differ" if lines
              else f"all {len(parent)} equal")
    print(f"check reports at seeds {args.seeds}: {counts}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
