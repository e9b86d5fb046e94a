"""Spans recorded from outside the library, around calls into each module.

A :class:`Tracer` swaps named attributes -- class methods, module-level
functions and entries of ``edgeneck.tensor.BACKWARD`` -- for wrappers that
open a span, call the original and close the span.  :meth:`Tracer.remove`
puts the originals back, so untraced operations run the library as is.

Every span has a name, a start, an end and a parent (the span open when
it started).  Spans come in two views:

* ``block`` spans (operation, network glue, the five neck blocks, the
  report, backward and each backward rule, gradient checks) nest into one
  tree.  A block's self time is its duration minus its nearest block
  descendants, so the block self times of an operation add up to the
  operation's duration.
* ``layer`` spans (each ``Conv2d`` by layer name, and every
  ``tensor.conv2d`` kernel call) cut across that tree.  Their time is
  already inside the enclosing block, so they are reported beside it,
  never added to it.

Spans are folded into per-(name, parent) rows as they close, which keeps
memory flat over thousands of tiny forwards; rows are printed when the
run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

BLOCK = "block"
LAYER = "layer"


class MissingTarget(Exception):
    """A trace target does not exist, or recorded no call in its workload."""


class Tracer:
    def __init__(self):
        self._stack = []  # [name, view, start, child_time, child_block_time]
        self._patches = []  # (owner, attr, original, is_mapping)
        self.rows = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.calls = defaultdict(int)  # target -> calls, for the guards
        self.conv = defaultdict(lambda: [0, 0.0, 0.0, ""])  # parent -> calls, flop, bytes, dims

    # -- spans ---------------------------------------------------------------

    def enter(self, name, view=BLOCK):
        self._stack.append([name, view, time.perf_counter(), 0.0, 0.0])

    def exit(self):
        end = time.perf_counter()
        name, view, start, child, child_block = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else "-"
        row = self.rows[(name, parent)]
        row[0] += 1
        row[1] += dur
        row[2] += dur - (child_block if view == BLOCK else child)
        if self._stack:
            self._stack[-1][3] += dur
        if view == BLOCK:
            for frame in reversed(self._stack):
                if frame[1] == BLOCK:
                    frame[4] += dur
                    break

    @property
    def parent(self):
        return self._stack[-1][0] if self._stack else "-"

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr, target, make):
        """Replace ``owner.attr`` (or ``owner[attr]``) with ``make(original)``."""
        mapping = isinstance(owner, dict)
        try:
            original = owner[attr] if mapping else getattr(owner, attr)
        except (KeyError, AttributeError):
            raise MissingTarget(f"trace target {target} does not exist") from None
        wrapper = make(original)
        if mapping:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, mapping))

    def wrap(self, owner, attr, target, name=None, view=BLOCK, after=None):
        """Span every call of ``owner.attr``; ``name`` may be a function of the args."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.calls[target] += 1
                self.enter(name(args) if callable(name) else (name or target), view)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.exit()
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper

        self.patch(owner, attr, target, make)

    def remove(self):
        for owner, attr, original, mapping in reversed(self._patches):
            if mapping:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def require(self, targets):
        """Fail, naming the target, if a required target recorded no call."""
        for target in targets:
            if self.calls.get(target, 0) < 1:
                raise MissingTarget(f"trace target {target} recorded no call")

    # -- kernel counts -------------------------------------------------------

    def count_conv(self, args, kwargs, out):
        """Computed FLOPs and bytes of one conv2d call, from its dims alone."""
        x, w = args[0], args[1]
        bias = args[2] if len(args) > 2 else kwargs.get("bias")
        c_out = w.dims[0]
        taps = w.dims[1] * w.dims[2] * w.dims[3]
        n_out = out.data.size
        flop = 2 * n_out * taps + (n_out if bias is not None else 0)
        elems = x.data.size + w.data.size + n_out + (c_out if bias is not None else 0)
        row = self.conv[self.parent]
        row[0] += 1
        row[1] += flop
        row[2] += elems * out.data.itemsize
        row[3] = f"{'x'.join(map(str, x.dims))}*{'x'.join(map(str, w.dims))}"

    # -- folding -------------------------------------------------------------

    def self_time(self, name):
        return sum(r[2] for (n, _), r in self.rows.items() if n == name)

    def total(self, name):
        return sum(r[1] for (n, _), r in self.rows.items() if n == name)

    def count(self, name):
        return sum(r[0] for (n, _), r in self.rows.items() if n == name)

    def table(self, per):
        """One line per (span, parent): calls, total and self seconds per unit."""
        lines = ["span parent calls total_s self_s"]
        for (name, parent), (calls, total, self_s) in sorted(
                self.rows.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{name} {parent} {calls / per:.6g} {total / per:.6g} "
                         f"{self_s / per:.6g}")
        return lines
