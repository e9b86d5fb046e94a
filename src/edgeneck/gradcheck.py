"""Complex-step verification of reverse-mode gradients.

:func:`grad_check` compares each probe's analytic directional derivative
``sum(g * u)`` with the complex step ``Im f(x + i H u) / H`` along a vector
``u``: one coordinate of one input (one-hot ``u``), or a seeded random
direction over all inputs together.  The complex step subtracts
nothing, so it has no cancellation and is exact to rounding at ``H =
1e-30`` (Squire and Trapp, "Using Complex Variables to Estimate Derivatives
of Real Functions", SIAM Review 1998).  The base forward and backward run
on real float64 leaves.

The target runs once, on a tape that lists every op call with its
arguments, output and record.  A probe recomputes only its cone: the
listed calls that the probed inputs reach, in their listed order, through
positional and keyword arguments and the elements of a list argument
(``concat_channels``).  A cone is compiled once, with slot ``k`` for leaf
``k`` and the argument positions that hold a cone tensor; an evaluation
fills only those, and every other argument is the base forward's own
tensor.  That equals re-running the target because of two rules of the
contract: no block picks its op calls by data values, and a target
computes only through ops.

One evaluation carries a batch of probes along a leading axis of the
leaves' points, which the ops broadcast over (the vector forward mode of
Griewank and Walther, "Evaluating Derivatives", 2008, section 3, with
complex steps for tangents).  An entry's probes, one input's coordinates
or the joint directions over all inputs, are evaluated in batches of as
many as keep the entry's leaves' points, and each value the cone
recomputes, at complex128 within ``tensor._TILE_BYTES`` (at least one
probe).  The bound is per value: an evaluation keeps every value of its
cone, so it holds at most ``_TILE_BYTES`` times the cone's length beyond
one probe's worth.  The points live in one complex buffer per leaf whose
real parts are filled once per entry; a batch writes only its imaginary
parts.  Each op and block check takes one batch per input.  The leaves of
``verify.pipeline_check`` alone fill the bound, so its directions are one
per evaluation, as is each halving of a failed direction.

The complex step is linear in ``u``, so the signed residual ``sum(g * u) -
Im f / H`` of a joint direction is a sum of one term per input.  Each
input's part of ``u`` is its standard normal draw divided by ``max(1,
|g|)``, the norm of its analytic gradient ``g``: its term of ``sum(g * u)``
is then of order 1, or smaller where ``|g| < 1`` and ``_rel_err`` scores
absolute error, so an error in a small input's gradient is not drowned by
the terms of large ones.  A failed joint direction is localised by
bisection: ``u`` restricted to the first half of the inputs (the rest keep
a zero imaginary part) gives that half's residual from the same compiled
cone, the other half's is the difference, and the half with the larger
magnitude is kept, at most ``ceil(log2 n)`` evaluations for ``n`` inputs.

Ops order complex values by real part first, so a probe keeps the base
forward's branch except at an exact real tie (relu at 0, tied pooling
candidates, ``edge_magnitude`` at ``(0, 0)``), where the imaginary part
picks one.  So each recomputed call's ``branch`` entry is compared, probe
by probe, with the base forward's record of that call, calls on a tape the
target opens itself included, and a probe with a differing entry is
skipped and counted; the other probes of its batch stand.  An
input left with no verified probe fails the check: nothing was measured
about its gradient.  A probe whose analytic or numeric derivative is not
finite scores an infinite error, so a NaN gradient fails too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import Tensor, Tape, _tensor, _tile, backward

H = 1e-30
TOL = 1e-10


@dataclass
class GradCheckEntry:
    """One probed input's outcome, or a joint direction's: probe counts and the worst error.

    A joint direction's ``label`` spans its inputs, ``first..last``.
    ``worst_input`` names the input of the worst error: the entry's own, or
    the one a failed direction's error was localised to.  ``worst_coord`` is
    the coordinate of an input's worst probe (``None`` for a direction).
    """

    label: str
    probed: int
    skipped: int
    max_rel_err: float
    worst_coord: tuple | None
    worst_input: str | None

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
        """Labels of the entries that no probe verified: inputs, or a joint direction's span."""
        return [e.label for e in self.entries if e.probed == 0]

    @property
    def ok(self):
        return self.max_rel_err <= self.tol and not self.unprobed

    @property
    def verdict(self):
        return "ok" if self.ok else "FAILED"

    @property
    def totals(self):
        """The whole check's statistics, as its ``total:`` line and a check line print them."""
        return (f"probed={self.probed} skipped={self.skipped} "
                f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e}")

    def format(self):
        lines = [e.format() for e in self.entries]
        lines.append(f"total: {self.totals} [{self.verdict}]")
        return "\n".join(lines)


def _rel_err(analytic, numeric):
    """``inf`` unless both values are finite: a NaN would lose every comparison and pass."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _cones(calls, groups):
    """Per group of leaves, the listed ``calls`` that its leaves reach, in listed order.

    One pass carries, per tensor, the bit mask of the groups that reach it,
    through positional and keyword arguments and the elements of a list
    argument.
    """
    reach = {id(leaf): 1 << k for k, group in enumerate(groups) for leaf in group}
    cones = [[] for _ in groups]
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


def _compile(calls, leaves, out):
    """The cone ``calls`` of ``leaves``, ready to recompute, and the slot of ``out``.

    Slot ``k`` is leaf ``k`` and slot ``len(leaves) + k`` the output of
    call ``k``; the slot of ``out`` is ``None`` when the cone misses it.
    Each compiled call is ``(op, args, kwargs, subs, branch)``: private
    copies of its arguments (a list argument copied too), the ``(container,
    key, slot)`` positions in them that hold a cone tensor, and the base
    forward's ``branch`` entry or ``None``.
    """
    slots = {id(leaf): k for k, leaf in enumerate(leaves)}
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
        slots[id(result)] = len(leaves) + len(cone)
        cone.append((op, args, kwargs, subs, None if rec is None else rec.saved.get("branch")))
    return cone, slots.get(id(out))


def _derivative(cone, end, points):
    """Per probe, ``Im(out) / H`` with the cone recomputed once from the complex ``points``.

    ``points`` holds one ``(P, *dims)`` array per compiled leaf, in slot
    order: probe ``p`` is every leaf's ``[p]``, and the ops carry the P
    probes along that leading axis, on a tape of their own.  ``end`` is
    the slot of ``out`` (``None``: the cone misses it, whose imaginary part
    is then 0).  A probe reads ``None`` where a recomputed call's
    ``branch`` entry differs from the base forward's: it sits on a kink.
    """
    count = len(points[0])
    kept = np.ones(count, bool)
    values = [_tensor(point, True) for point in points]
    with Tape() as tape:
        for op, args, kwargs, subs, branch in cone:
            for box, key, slot in subs:
                box[key] = values[slot]
            values.append(op(*args, **kwargs))
            if branch is not None:
                got = tape.records[-1].saved["branch"]
                if got.shape[1:] != branch.shape:
                    kept[:] = False
                else:
                    kept &= (got == branch).reshape(count, -1).all(axis=1)
                if not kept.any():
                    return [None] * count
    numeric = [0.0] * count if end is None else (values[end].data.imag.reshape(count) / H).tolist()
    return [value if ok else None for value, ok in zip(numeric, kept)]


def _slope(analytic, points):
    """The analytic ``sum(g * u)`` of a direction, read from its points' imaginary parts ``H u``."""
    return sum(float(np.vdot(g, point.imag)) for g, point in zip(analytic, points)) / H


def _localise(cone, end, leaves, analytic, points, residual):
    """Index of the leaf that the signed ``residual`` of the direction to ``points`` comes from.

    A tie keeps the first half and a non-finite residual counts as the
    larger; a halving the kink guard skips ends at the first leaf left.
    """
    lo, hi = 0, len(leaves)
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        [numeric] = _derivative(cone, end, [
            point if lo <= k < mid else leaf.data.astype(np.complex128)[None]
            for k, (leaf, point) in enumerate(zip(leaves, points))])
        if numeric is None:
            break
        first = _slope(analytic[lo:mid], points[lo:mid]) - numeric
        second = residual - first
        if math.isfinite(first) and not abs(second) <= abs(first):
            lo, residual = mid, second
        else:
            hi, residual = mid, first
    return lo


def grad_check(fn, inputs, rng=None, max_coords=None, directional=False):
    """Check ``fn``'s gradients at the given point, with step ``H`` and tolerance ``TOL``.

    ``fn`` takes one tensor per entry of ``inputs`` (a mapping from label
    to tensor or array, in order) and returns a 1x1x1x1 scalar.  The check
    always runs in float64 regardless of the input dtype.  An input that
    ``fn`` ignores has a zero analytic gradient, even when it ignores all.

    ``fn`` is called once; each evaluation recomputes only the op calls its
    inputs reach, for a batch of probes at once.  So ``fn`` must keep two
    rules: it picks no op call by data values, and it computes only through
    ops (a value it derives from a tensor's ``data`` outside an op would not
    be recomputed).  ``inputs`` must not be empty.

    ``max_coords`` (at least 1) caps the verified probes per entry.  Without
    ``directional`` each input is an entry whose probes are its coordinates:
    their row-major flat indices, shuffled by ``rng.permutation`` (``rng``
    seeded to 0 when omitted) unless ``max_coords`` is omitted.  With
    ``directional`` the report has one entry: directions over all inputs
    together, each input's part drawn in order from ``rng.standard_normal``
    and divided by ``max(1, |g|)`` of its analytic gradient; ``max_coords``
    (1 when omitted) counts directions.

    A batch takes the next probes, no more than are still to verify and
    than keep the entry's points and each value the cone recomputes within
    ``_TILE_BYTES`` (at least one).  A probe the kink guard skips is
    replaced by a later batch, attempting at most ``max(6 * max_coords,
    max_coords + 12)`` probes, and no more than an input's size.  A batch
    with an error above ``TOL`` ends its entry, so the probes attempted are
    those of probing one at a time, up to the end of the first failing
    batch.  A failed entry's worst direction is localised to one input by
    bisection, at most ``ceil(log2 n)`` more evaluations.
    """
    if not inputs:
        raise ContractError("grad_check needs at least one input")
    if max_coords is not None and max_coords < 1:
        raise ContractError(f"max_coords must be >= 1, got {max_coords}")
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

    labels = list(leaves)
    if directional:
        groups = [list(leaves.values())]
        names = [labels[0] if len(labels) == 1 else f"{labels[0]}..{labels[-1]}"]
    else:
        groups = [[leaf] for leaf in leaves.values()]
        names = labels
    entries = []
    for name, group, calls in zip(names, groups, _cones(tape.calls, groups)):
        cone, end = _compile(calls, group, out)
        analytic = [np.zeros(leaf.dims) if leaf.grad is None else leaf.grad for leaf in group]
        size = sum(leaf.data.size for leaf in group)
        target = max_coords or (1 if directional else size)
        budget = max(6 * target, target + 12)
        if directional:
            scales = [H / max(1.0, math.sqrt(float(np.vdot(g, g)))) for g in analytic]
        else:
            order = np.arange(size) if max_coords is None else rng.permutation(size)
            target, budget = min(target, size), min(budget, size)
        # probes per batch: each adds a complex128 copy of the leaves and of
        # every value the cone recomputes, the largest bounded by _TILE_BYTES
        step = _tile(target, 16 * max([size] + [result.data.size for _, result, _ in calls]))
        buffers = [np.empty((step,) + leaf.dims, np.complex128) for leaf in group]
        for buffer, leaf in zip(buffers, group):
            buffer[...] = leaf.data
        probed = skipped = 0
        worst = 0.0
        worst_at = residual = None
        # batches of at most as many probes as are still to verify replace the
        # ones the kink guard skips, within the budget; a failed batch ends the entry
        while probed < target and probed + skipped < budget and worst <= TOL:
            attempted = probed + skipped
            count = min(target - probed, budget - attempted, step)
            points = [buffer[:count] for buffer in buffers]
            if directional:
                for probe in range(count):
                    for point, leaf, scale in zip(points, group, scales):
                        point[probe].imag = rng.standard_normal(leaf.dims) * scale
                at = range(count)
                slopes = [_slope(analytic, [point[probe] for point in points]) for probe in at]
            else:
                at = order[attempted:attempted + count]
                flat = points[0].reshape(count, -1).imag
                flat[...] = 0.0
                flat[np.arange(count), at] = H
                slopes, at = analytic[0].flat[at].tolist(), at.tolist()
            for slope, numeric, at in zip(slopes, _derivative(cone, end, points), at):
                if numeric is None:
                    skipped += 1
                    continue
                err = _rel_err(slope, numeric)
                probed += 1
                if err > worst:
                    worst, worst_at, residual = err, at, slope - numeric
        coord = who = None
        if directional and worst > TOL:  # the failed batch's points are still in the buffers
            points = [buffer[worst_at:worst_at + 1] for buffer in buffers]
            who = labels[_localise(cone, end, group, analytic, points, residual)]
        elif not directional and worst_at is not None:
            coord, who = tuple(map(int, np.unravel_index(worst_at, group[0].dims))), name
        entries.append(GradCheckEntry(name, probed, skipped, worst, coord, who))
    return GradCheckReport(entries, TOL)
