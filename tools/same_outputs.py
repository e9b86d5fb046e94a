"""Whether two checkouts give the same gradient-check and ``forward`` reports.

Run from anywhere, with two checkouts that each hold ``src/edgeneck``::

    python3 tools/same_outputs.py --parent ../parent --change . --seeds 1-20

Each side runs in its own process, with only its own ``src/`` on the import
path:

* every check of ``verify.checks_for_scope("all", seed)`` at each seed.  Per
  check it compares the verdict, the ``unprobed`` labels and, entry by entry,
  the label, ``probed``, ``skipped``, ``repr(max_rel_err)``, ``worst_coord``
  and ``worst_input``;
* ``edgeneck forward`` on the 12 usual configs (``CONFIGS``: the default and
  the small channel plan, f32 and f64, ``full``, ``low3`` and ``high3``, seed
  3 on 64x64 noise).  It compares the exit code and the report bytes, and for
  a differing report names the keys that differ and the largest relative
  change of a numeric value, taken against the parent's.

It prints one line per differing check or config and exits 1, or one summary
line per kind and exits 0 when everything is equal.  Weight dumps and train
gradients are not compared.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import git_head, parse_seeds

PLANS = {"default": "", "small": "channels = 4, 8, 8, 16, 16\npyramid_width = 8\nreduction_ratio = 4\n"}
CONFIGS = {f"{plan} {dtype} {mode}":
           f"input = noise:64x64\nseed = 3\ndtype = {dtype}\nfa_mode = {mode}\n{body}"
           for plan, body in PLANS.items() for dtype in ("f32", "f64")
           for mode in ("full", "low3", "high3")}

OUTPUTS = """
import contextlib, io, json, os, sys, tempfile
from edgeneck.cli import main
from edgeneck.verify import checks_for_scope
configs, seeds = json.loads(sys.argv[1]), map(int, sys.argv[2:])
checks = []
for seed in seeds:
    for label, run in checks_for_scope("all", seed):
        report = run()
        checks.append({"check": f"seed {seed} {label}", "ok": report.ok,
                       "unprobed": report.unprobed,
                       "entries": [[e.label, e.probed, e.skipped, repr(e.max_rel_err),
                                    e.worst_coord, e.worst_input] for e in report.entries]})
forwards = {}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.cfg")
    for name, text in configs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["forward", "--config", path])
        forwards[name] = [code, out.getvalue()]
print(json.dumps({"checks": checks, "forwards": forwards}))
"""

FIELDS = ("label", "probed", "skipped", "max_rel_err", "worst_coord", "worst_input")


def outputs(checkout, seeds):
    """``checkout``'s check reports at ``seeds``, keyed by ``seed S label``, and its
    ``[exit code, report]`` per name of ``CONFIGS``."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()))
    proc = subprocess.run([sys.executable, "-c", OUTPUTS, json.dumps(CONFIGS), *map(str, seeds)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the outputs of {checkout} exited {proc.returncode}:\n{proc.stderr}")
    found = json.loads(proc.stdout)
    return {r["check"]: r for r in found["checks"]}, found["forwards"]


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


def _values(report):
    return dict(line.partition("=")[::2] for line in report.splitlines())


def _rel_change(old, new):
    """``|new - old| / |old|`` of two numeric report values, or None when either is not a number."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return abs(b - a) / abs(a) if a else math.inf


def forward_differences(parent, change):
    """One line per config whose ``forward`` exit code or report differs between the two sides."""
    lines = []
    for name in CONFIGS:
        (code_a, a), (code_b, b) = parent[name], change[name]
        if code_a != code_b:
            lines.append(f"forward {name}: exit {code_a} -> {code_b}")
        elif a != b:
            old, new = _values(a), _values(b)
            keys = [k for k in {**old, **new} if old.get(k) != new.get(k)]
            changes = [c for c in (_rel_change(old.get(k), new.get(k)) for k in keys)
                       if c is not None]
            largest = f"{max(changes):.3e}" if changes else "none numeric"
            lines.append(f"forward {name}: {len(keys)} keys differ: {', '.join(keys)}; "
                         f"largest relative change {largest}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", default="1-20")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    parent, parent_fwd = outputs(args.parent, seeds)
    change, change_fwd = outputs(args.change, seeds)
    lines = differences(parent, change)
    fwd_lines = forward_differences(parent_fwd, change_fwd)
    print(f"parent: {git_head(args.parent)}\nchange: {git_head(args.change)}")
    for line in lines + fwd_lines:
        print(line)
    counts = (f"{len(parent)} parent, {len(change)} change, {len(lines)} differ" if lines
              else f"all {len(parent)} equal")
    print(f"check reports at seeds {args.seeds}: {counts}")
    fwd_counts = f"{len(fwd_lines)} differ" if fwd_lines else f"all {len(CONFIGS)} byte-equal"
    print(f"forward reports of the {len(CONFIGS)} usual configs: {fwd_counts}")
    return 1 if lines or fwd_lines else 0


if __name__ == "__main__":
    sys.exit(main())
