"""Complex-step verification of reverse-mode gradients.

:func:`grad_check` compares each probe's analytic directional derivative
``sum(g * u)`` with the complex step ``Im f(x + i H u) / H`` along the unit
vector ``u``: one coordinate (one-hot ``u``), or a seeded random direction
over a whole input.  The complex step subtracts nothing, so it has no
cancellation and is exact to rounding at ``H = 1e-30`` (Squire and Trapp,
"Using Complex Variables to Estimate Derivatives of Real Functions", SIAM
Review 1998).  The base forward and backward run on real float64 leaves.

The target runs once, on a tape that lists every op call with its
arguments, output and record.  A probe recomputes only the probed input's
cone, once: the listed calls that the input reaches, in their listed order,
through positional and keyword arguments and the elements of a list
argument (``concat_channels``).  Each cone is compiled once per input with
the argument positions that hold a cone tensor; a probe fills only those,
and every other argument is the base forward's own tensor.  That equals
re-running the target because of two rules of the contract: no block picks
its op calls by data values, and a target computes only through ops.

Ops order complex values by real part first, so a probe keeps the base
forward's branch except at an exact real tie (relu at 0, tied pooling
candidates, ``edge_magnitude`` at ``(0, 0)``), where the imaginary part
picks one.  So each recomputed call's ``branch`` entry is compared with the
base forward's record of that call, calls on a tape the target opens itself
included, and a probe with a differing entry is skipped and counted.  An
input left with no verified probe fails the check: nothing was measured
about its gradient.  A probe whose analytic or numeric derivative is not
finite scores an infinite error, so a NaN gradient fails too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ContractError
from .tensor import Tensor, Tape, backward

H = 1e-30
TOL = 1e-10


@dataclass
class GradCheckEntry:
    """Per-input outcome: probe counts and the worst relative error seen."""

    label: str
    probed: int
    skipped: int
    max_rel_err: float
    worst_coord: tuple | None

    def format(self):
        text = (f"{self.label}: probed={self.probed} skipped={self.skipped} "
                f"max_rel_err={self.max_rel_err:.3e}")
        return text + " [no verified probe]" if self.probed == 0 else text


@dataclass
class GradCheckReport:
    entries: list
    tol: float

    @property
    def max_rel_err(self):
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def probed(self):
        return sum(e.probed for e in self.entries)

    @property
    def skipped(self):
        return sum(e.skipped for e in self.entries)

    @property
    def unprobed(self):
        """Labels of the inputs that no probe verified."""
        return [e.label for e in self.entries if e.probed == 0]

    @property
    def ok(self):
        return self.max_rel_err <= self.tol and not self.unprobed

    def format(self):
        lines = [e.format() for e in self.entries]
        verdict = "ok" if self.ok else "FAILED"
        lines.append(
            f"total: probed={self.probed} skipped={self.skipped} "
            f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e} [{verdict}]"
        )
        return "\n".join(lines)


def _rel_err(analytic, numeric):
    """``inf`` unless both values are finite: a NaN would lose every comparison and pass."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _cones(calls, leaves):
    """Per leaf, the listed ``calls`` it reaches, in listed order.

    One pass carries, per tensor, the bit mask of the leaves that reach it,
    through positional and keyword arguments and the elements of a list
    argument.
    """
    reach = {id(leaf): 1 << k for k, leaf in enumerate(leaves)}
    cones = [[] for _ in leaves]
    for call in calls:
        (_, args, kwargs), result, _ = call
        mask = 0
        for arg in (*args, *kwargs.values()):
            for t in arg if isinstance(arg, (list, tuple)) else (arg,):
                mask |= reach.get(id(t), 0)
        if mask:
            reach[id(result)] = mask
            while mask:
                cones[(mask & -mask).bit_length() - 1].append(call)
                mask &= mask - 1
    return cones


def _compile(calls, leaf, out):
    """``leaf``'s cone ``calls``, ready to recompute, and the slot of ``out``.

    Slot 0 is ``leaf``, slot ``k`` the output of call ``k - 1``; the slot
    of ``out`` is ``None`` when the cone misses it.  Each compiled call is
    ``(op, args, kwargs, subs, branch)``: private copies of its arguments
    (a list argument copied too), the ``(container, key, slot)`` positions
    in them that hold a cone tensor, and the base forward's ``branch``
    entry or ``None``.
    """
    slots = {id(leaf): 0}
    cone = []
    for (op, args, kwargs), result, rec in calls:
        args, kwargs = list(args), dict(kwargs)
        subs = []
        for box, keys in ((args, range(len(args))), (kwargs, list(kwargs))):
            for key in keys:
                arg = box[key]
                if isinstance(arg, (list, tuple)):
                    box[key] = arg = list(arg)
                    subs += [(arg, j, slots[id(t)]) for j, t in enumerate(arg) if id(t) in slots]
                elif id(arg) in slots:
                    subs.append((box, key, slots[id(arg)]))
        slots[id(result)] = len(cone) + 1
        cone.append((op, args, kwargs, subs, None if rec is None else rec.saved.get("branch")))
    return cone, slots.get(id(out))


def _derivative(cone, end, point):
    """``Im(out) / H`` with the cone recomputed from the complex ``point``, on a tape of its own.

    ``end`` is the slot of ``out`` (``None``: the cone misses it, whose
    imaginary part is then 0).  Returns ``None`` as soon as a recomputed
    call's ``branch`` entry differs from the base forward's: the probe sits
    on a kink.
    """
    values = [Tensor(point, requires_grad=True)]
    with Tape() as tape:
        for op, args, kwargs, subs, branch in cone:
            for box, key, slot in subs:
                box[key] = values[slot]
            values.append(op(*args, **kwargs))
            if branch is not None:
                got = tape.records[-1].saved["branch"]
                if got.shape != branch.shape or not (got == branch).all():
                    return None
    return 0.0 if end is None else values[end].data.item().imag / H


def _probes(leaf, analytic, rng, shuffled, directional):
    """``(point, slope, at)`` for each probe of ``leaf`` along a unit vector ``u``.

    ``point`` is the complex ``x + i H u``, ``slope`` the analytic ``sum(g *
    u)`` and ``at`` the row-major flat index of a one-hot ``u`` (``None``
    for a direction).  A one-hot probe sets one imaginary element of one
    complex copy of the leaf, and clears it when the next probe is drawn.
    """
    if directional:
        while True:
            u = rng.standard_normal(leaf.dims)
            u /= np.linalg.norm(u)
            point = leaf.data.astype(np.complex128)
            point.imag = H * u
            yield point, float(np.vdot(analytic, u)), None
    point = leaf.data.astype(np.complex128)
    imag = point.imag
    flat = np.arange(point.size)
    for i in flat[rng.permutation(flat.size)] if shuffled else flat:
        imag.flat[i] = H
        yield point, float(analytic.flat[i]), i
        imag.flat[i] = 0.0


def grad_check(fn, inputs, rng=None, max_coords=None, directional=False):
    """Check ``fn``'s gradients at the given point, with step ``H`` and tolerance ``TOL``.

    ``fn`` takes one tensor per entry of ``inputs`` (a mapping from label
    to tensor or array, in order) and returns a 1x1x1x1 scalar.  The check
    always runs in float64 regardless of the input dtype.  An input that
    ``fn`` ignores has a zero analytic gradient, even when it ignores all.

    ``fn`` is called once; each probe recomputes only the op calls its
    input reaches.  So ``fn`` must keep two rules: it picks no op call by
    data values, and it computes only through ops (a value it derives from
    a tensor's ``data`` outside an op would not be recomputed).

    ``max_coords`` caps the verified probes per input: the row-major flat
    indices of its coordinates are shuffled by ``rng.permutation`` (``rng``
    seeded to 0 when omitted) and a probe the kink guard skips is replaced
    by the next one, attempting at most ``max(6 * max_coords, max_coords +
    12)``.  With ``directional`` each probe is instead one unit direction
    over the whole input, drawn from ``rng.standard_normal`` and
    normalised; ``max_coords`` (1 when omitted) counts directions, and a
    direction the kink guard skips is replaced within the same budget.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    leaves = {}
    for label, value in inputs.items():
        data = value.data if isinstance(value, Tensor) else np.asarray(value)
        leaves[label] = Tensor(data.astype(np.float64), requires_grad=True)

    with Tape() as tape:
        out = fn(*leaves.values())
    if out.dims != (1, 1, 1, 1):
        raise ContractError(f"grad_check target must return a 1x1x1x1 scalar, got {out.dims}")
    if out.requires_grad:  # else no input reaches it: every analytic gradient stays zero
        backward(tape, out)

    entries = []
    for (label, leaf), calls in zip(leaves.items(), _cones(tape.calls, leaves.values())):
        cone, end = _compile(calls, leaf, out)
        analytic = np.zeros(leaf.dims) if leaf.grad is None else leaf.grad
        target = max_coords or (1 if directional else leaf.data.size)
        probes = _probes(leaf, analytic, rng, max_coords is not None, directional)
        probed = 0
        skipped = 0
        worst = 0.0
        worst_at = None
        # skipped probes draw replacements, within a bounded budget
        for point, slope, at in islice(probes, max(6 * target, target + 12)):
            numeric = _derivative(cone, end, point)
            if numeric is None:
                skipped += 1
                continue
            err = _rel_err(slope, numeric)
            probed += 1
            if err > worst:
                worst = err
                worst_at = at
            if probed == target:
                break
        worst_coord = None if worst_at is None else tuple(
            map(int, np.unravel_index(worst_at, leaf.dims)))
        entries.append(GradCheckEntry(label, probed, skipped, worst, worst_coord))
    return GradCheckReport(entries, TOL)
