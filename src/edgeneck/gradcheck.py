"""Finite-difference verification of reverse-mode gradients.

:func:`grad_check` compares every analytic leaf gradient against float64
central differences, coordinate by coordinate.  Probes whose two forward
evaluations land on different sides of a non-smooth point (a relu kink or
a pooling arg-max flip) would make the difference quotient meaningless.
Each evaluation runs on its own tape, and a probe whose two tapes hold
different ``branch`` entries in their records is skipped; the report says
how many were.  A probe whose error exceeds the tolerance is
re-estimated by Richardson extrapolation, ``(4 D(eps/2) - D(eps)) / 3``,
which cancels the O(eps^2) truncation term of the central difference
where the function is strongly curved; a real gradient bug survives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import Tensor, Tape, backward

EPS = 1e-3
TOL = 1e-5


@dataclass
class GradCheckEntry:
    """Per-input outcome: probe counts and the worst relative error seen."""

    label: str
    probed: int
    skipped: int
    max_rel_err: float
    worst_coord: tuple | None

    def format(self):
        return (
            f"{self.label}: probed={self.probed} skipped={self.skipped} "
            f"max_rel_err={self.max_rel_err:.3e}"
        )


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
    def ok(self):
        return self.max_rel_err <= self.tol

    def format(self):
        lines = [e.format() for e in self.entries]
        verdict = "ok" if self.ok else "FAILED"
        lines.append(
            f"total: probed={self.probed} skipped={self.skipped} "
            f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e} [{verdict}]"
        )
        return "\n".join(lines)


def _rel_err(analytic, numeric):
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _central(fn, args, leaf, coord, eps):
    """Central difference of ``fn`` along one coordinate of ``leaf``.

    Returns ``None`` when the two evaluations take different branches
    (the probe straddles a kink), so the quotient would be meaningless.
    """
    original = leaf.data[coord]
    values = []
    branches = []
    for step in (eps, -eps):
        leaf.data[coord] = original + step
        with Tape() as tape:
            values.append(fn(*args).item())
        branches.append([rec.saved["branch"] for rec in tape.records if "branch" in rec.saved])
    leaf.data[coord] = original
    if not all(map(np.array_equal, *branches)):
        return None
    return (values[0] - values[1]) / (2.0 * eps)


def _candidate_indices(shape, mask, rng, shuffled):
    """Row-major flat indices of the probeable coordinates, in ``rng``'s order if ``shuffled``."""
    if mask is not None and mask.shape != shape:
        raise ContractError(f"probe mask shape {mask.shape} != input dims {shape}")
    flat = np.arange(np.prod(shape)) if mask is None else np.flatnonzero(mask)
    return flat[rng.permutation(flat.size)] if shuffled else flat


def grad_check(fn, inputs, rng=None, max_coords=None, probe_masks=None):
    """Check ``fn``'s gradients at the given point, with step ``EPS`` and tolerance ``TOL``.

    ``fn`` takes one tensor per entry of ``inputs`` (a mapping from label
    to tensor or array, in order) and returns a 1x1x1x1 scalar.  The check
    always runs in float64 regardless of the input dtype.  An input that
    ``fn`` ignores has a zero analytic gradient, even when it ignores all.

    ``max_coords`` caps the verified probes per input: the row-major flat
    indices of its coordinates are shuffled by ``rng.permutation`` (``rng``
    seeded to 0 when omitted) and a probe the kink guard skips is replaced
    by the next one, attempting at most ``max(6 * max_coords, max_coords +
    12)``.  ``probe_masks`` maps a label to a boolean array of the
    coordinates that may be probed, for points known to sit near a kink.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    probe_masks = probe_masks or {}
    for label in probe_masks:
        if label not in inputs:
            raise ContractError(f"probe mask for unknown input {label!r}")

    leaves = {}
    for label, value in inputs.items():
        data = value.data if isinstance(value, Tensor) else np.asarray(value)
        leaves[label] = Tensor(data.astype(np.float64), requires_grad=True)
    args = list(leaves.values())

    with Tape() as tape:
        out = fn(*args)
    if out.dims != (1, 1, 1, 1):
        raise ContractError(f"grad_check target must return a 1x1x1x1 scalar, got {out.dims}")
    if out.requires_grad:  # else no input reaches it: every analytic gradient stays zero
        backward(tape, out)

    entries = []
    for label, leaf in leaves.items():
        analytic = np.zeros(leaf.dims) if leaf.grad is None else leaf.grad
        flat = _candidate_indices(leaf.dims, probe_masks.get(label), rng,
                                  shuffled=max_coords is not None)
        if max_coords is None:
            target = attempts = flat.size
        else:
            # skipped probes draw replacements, within a bounded budget
            target = max_coords
            attempts = min(flat.size, max(6 * max_coords, max_coords + 12))
        probed = 0
        skipped = 0
        worst = 0.0
        worst_coord = None
        for coord in zip(*(i.tolist() for i in np.unravel_index(flat[:attempts], leaf.dims))):
            if probed >= target:
                break
            numeric = _central(fn, args, leaf, coord, EPS)
            if numeric is None:
                skipped += 1
                continue
            grad = float(analytic[coord])
            err = _rel_err(grad, numeric)
            if err > TOL:
                half = _central(fn, args, leaf, coord, EPS / 2)
                if half is not None:
                    err = _rel_err(grad, (4.0 * half - numeric) / 3.0)
            probed += 1
            if err > worst:
                worst = err
                worst_coord = coord
        entries.append(GradCheckEntry(label, probed, skipped, worst, worst_coord))
    return GradCheckReport(entries, EPS, TOL)
