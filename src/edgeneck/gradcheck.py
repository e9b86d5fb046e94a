"""Finite-difference verification of reverse-mode gradients.

:func:`grad_check` compares each probe's analytic directional derivative
``sum(g * u)`` with the float64 central difference along the unit vector
``u``: one coordinate (one-hot ``u``), or a seeded random direction over a
whole input.  The step ``EPS = 1e-5`` balances round-off ``u_mach |f| /
eps`` against truncation ``eps^2 |f'''| / 6`` (Nocedal and Wright,
*Numerical Optimization*, section 8.1), keeping both far below ``TOL``.
The target runs once, on a tape that lists every op call with its
arguments and output.  A probe evaluation recomputes only the probed
input's cone: the listed calls that the input reaches, in their listed
order, followed by tensor identity through positional and keyword
arguments and the elements of a list argument (``concat_channels``).  It
gives them the perturbed tensor and the recomputed outputs in place of the
base ones, and every other argument is the base forward's own tensor.  That
equals re-running the target because of two rules of the contract: no
block picks its op calls by data values, and a target computes only
through ops.  Each evaluation runs on its own tape; a probe whose two
evaluations record different ``branch`` entries (it straddles a relu kink
or a pooling arg-max flip) is skipped and counted.  An input left with no
verified probe fails the check: nothing was measured about its gradient.
A probe whose analytic or numeric derivative is not finite scores an
infinite error, so a NaN gradient fails too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ContractError
from .tensor import Tensor, Tape, backward

EPS = 1e-5
TOL = 1e-6


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
    eps: float
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


def _tensors(arg):
    """What an op argument passes: the elements of a list, else the argument itself."""
    return arg if isinstance(arg, (list, tuple)) else (arg,)


def _cone(calls, arg_ids, leaf):
    """The ``((op, args, kwargs), out)`` entries of the listed ``calls`` that ``leaf`` reaches.

    ``arg_ids`` holds each call's set of argument ids; the entries keep the listed order.
    """
    reached = {id(leaf)}
    cone = []
    for call, ids in zip(calls, arg_ids):
        if not reached.isdisjoint(ids):
            reached.add(id(call[1]))
            cone.append(call)
    return cone


def _swap(arg, new):
    """``arg``, or the tensor ``new`` maps its id to; a list or tuple has each element swapped."""
    if isinstance(arg, (list, tuple)):
        return [new.get(id(t), t) for t in arg]
    return new.get(id(arg), arg)


def _central(cone, leaf, step, out):
    """Central difference of ``out`` along the unit vector ``step`` (dims of ``leaf``).

    Each evaluation gives ``leaf``'s cone a fresh tensor in its place and
    recomputes it on a tape of its own; ``out`` is read recomputed, or as
    it is when the cone misses it.  Returns ``None`` when the two
    evaluations take different branches (the probe straddles a kink), so
    the quotient would be meaningless.
    """
    values = []
    branches = []
    move = EPS * step
    for data in (leaf.data + move, leaf.data - move):
        new = {id(leaf): Tensor(data, requires_grad=True)}
        with Tape() as tape:
            for (op, args, kwargs), base in cone:
                if kwargs:
                    kwargs = {k: _swap(v, new) for k, v in kwargs.items()}
                new[id(base)] = op(*[_swap(a, new) for a in args], **kwargs)
        values.append(new.get(id(out), out).item())
        branches.append([rec.saved["branch"] for rec in tape.records if "branch" in rec.saved])
    if not all(map(np.array_equal, *branches)):
        return None
    return (values[0] - values[1]) / (2.0 * EPS)


def _steps(dims, rng, shuffled, directional):
    """Unit vectors to probe an input of ``dims`` along, each with its coordinate or ``None``."""
    if directional:
        while True:
            u = rng.standard_normal(dims)
            yield u / np.linalg.norm(u), None
    flat = np.arange(np.prod(dims))
    for i in flat[rng.permutation(flat.size)] if shuffled else flat:
        step = np.zeros(dims)
        step.flat[i] = 1.0
        yield step, tuple(int(c) for c in np.unravel_index(i, dims))


def grad_check(fn, inputs, rng=None, max_coords=None, directional=False):
    """Check ``fn``'s gradients at the given point, with step ``EPS`` and tolerance ``TOL``.

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

    arg_ids = [{id(t) for arg in (*args, *kwargs.values()) for t in _tensors(arg)}
               for (_, args, kwargs), _ in tape.calls]
    entries = []
    for label, leaf in leaves.items():
        cone = _cone(tape.calls, arg_ids, leaf)
        analytic = np.zeros(leaf.dims) if leaf.grad is None else leaf.grad
        target = max_coords or (1 if directional else leaf.data.size)
        steps = _steps(leaf.dims, rng, max_coords is not None, directional)
        probed = 0
        skipped = 0
        worst = 0.0
        worst_coord = None
        # skipped probes draw replacements, within a bounded budget
        for step, coord in islice(steps, max(6 * target, target + 12)):
            numeric = _central(cone, leaf, step, out)
            if numeric is None:
                skipped += 1
                continue
            err = _rel_err(float(np.vdot(analytic, step)), numeric)
            probed += 1
            if err > worst:
                worst = err
                worst_coord = coord
            if probed == target:
                break
        entries.append(GradCheckEntry(label, probed, skipped, worst, worst_coord))
    return GradCheckReport(entries, EPS, TOL)
