"""The three workloads, each a closed loop with one caller.

* ``infer``: ``Network.forward`` plus ``build_report`` on one seeded
  1x3x256x256 f32 image, default config, no tape -- what
  ``edgeneck forward`` does per image.
* ``train``: zero the gradients, a taped forward of a seeded 2x3x128x128
  f32 batch, a loss summing every pyramid output, ``backward``.  The
  gradients are zeroed at the start of a step rather than the end so they
  survive the step for the output check; the work per step is the same.
* ``verify``: ``verify.checks_for_scope("all", s)`` in f64 for each seed
  ``s`` of a fixed seed list.  Latency is per suite pass at one seed --
  what ``edgeneck gradcheck --scope all --seed s`` does -- while
  ``attempted`` and ``failed`` count checks, so a failing check is a
  failed operation.

The workload seed only shapes inputs: the image or batch is drawn by this
harness from ``numpy.random.default_rng``, and on ``verify`` it picks
where in the seed list the run starts.  The weights always come from the
default config (parameter seed 0).

Output checks.  Every ``infer`` and ``train`` operation is compared with a
float64 run of the same weights (the f32 values cast up) and the same
input, computed once after the timed loop: each operation's outputs are
hashed, and every distinct output set is compared (one set, as long as
the library stays deterministic).  The bound on the normwise
relative difference comes from the probabilistic rounding-error model of
Higham and Mary (2019): a length-K f32 dot product is off by about
sqrt(K)*u, u = 2**-24, and errors of the DEPTH convolutions on the
longest input-to-output chain add up.  ``train`` also accumulates the
weight gradient of the stem over N*OH*OW positions.  This gives 4.0e-5
for ``infer`` and 1.2e-4 for ``train``; the measured worst case is about
1.6e-6.  A mismatch counts as a failed operation and never stops the run.

``verify`` seed list.  Seeds 2 and 3 show the known verification defects:
at seed 2 ``pipeline.full`` fails at 2.6e-5 on ``edge.gate.w0`` and four
``backbone.stem*`` inputs get no probe; at seed 3 ``block.edge_attention``
fails at 1.4e-5.  Each failing check counts as a failed operation, so the
defects stay visible until they are fixed.  Every run covers the whole
list, so runs with different workload seeds do the same work.

No working set here comes near the 300 MiB L3 of the 2-vCPU Xeon host the
benchmark was defined on (peak RSS is 46-103 MiB), so memory-bandwidth
effects are out of its scope.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import resource
import statistics
import time

import numpy as np

import edgeneck
from edgeneck import edge_attention, gradcheck, layers, network, report, verify
from edgeneck.backbone import Backbone
from edgeneck.config import RunConfig
from edgeneck.edge_attention import EdgeGuidedAttention
from edgeneck.layers import Conv2d
from edgeneck.pyramid import TopDownPyramid
from edgeneck.receptive_field import WideFieldBlock

from tracing import LAYER, MissingTarget, Tracer

SETUP_REPEATS = 11
VERIFY_SETUP_REPEATS = 31
REFERENCE_REPEATS = 2
VERIFY_SEEDS = (2, 3)
U32 = float(np.finfo(np.float32).eps) / 2
DEPTH = 14  # stem1, stem2, stage2..5, wide.s32 (point, row, col, adjust), lateral.s32, smooth.s32/s16/s8
K_FWD = 256 * 3 * 3  # longest forward accumulation: the 3x3 pyramid smooth over width 256

FORWARD_TARGETS = (
    "Network.forward", "Backbone.__call__", "EdgeGuidedAttention.__call__",
    "network.aggregate", "WideFieldBlock.__call__", "TopDownPyramid.__call__",
    "Conv2d.__call__", "layers.conv2d", "edge_attention.conv2d",
)
BLOCKS = ("backbone", "edge_attention", "aggregation", "receptive_field", "pyramid")
THUNK_GROUPS = {"op": "ops", "block": "blocks", "pipeline": "pipeline"}
tensor = importlib.import_module("edgeneck.tensor")  # the package re-exports a function by this name


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  Below 21 samples that
    percentile would not lie above the median, so the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def rel_err(value, ref):
    value = np.asarray(value, np.float64)
    ref = np.asarray(ref, np.float64)
    return float(np.linalg.norm(value - ref) / max(np.linalg.norm(ref), np.finfo(float).tiny))


def digest(arrays):
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def pyramid_loss(outputs):
    total = edgeneck.sum_all(outputs[0])
    for t in outputs[1:]:
        total = edgeneck.add(total, edgeneck.sum_all(t))
    return total


def f64_twin(net):
    """A float64 network holding exactly the f32 network's weights."""
    twin = edgeneck.Network(dtype=np.float64)
    weights = net.parameter_map()
    for name, p in twin.parameter_map().items():
        p.value = edgeneck.Tensor(weights[name].value.data.astype(np.float64), requires_grad=True)
    return twin


def install(traced):
    """Wrap every trace target; raises MissingTarget naming a vanished one."""
    tracer = traced.tracer
    tracer.wrap(edgeneck.Network, "forward", "Network.forward", "network.forward")
    tracer.wrap(Backbone, "__call__", "Backbone.__call__", "backbone")
    tracer.wrap(EdgeGuidedAttention, "__call__", "EdgeGuidedAttention.__call__", "edge_attention")
    tracer.wrap(network, "aggregate", "network.aggregate", "aggregation")
    tracer.wrap(WideFieldBlock, "__call__", "WideFieldBlock.__call__", "receptive_field")
    tracer.wrap(TopDownPyramid, "__call__", "TopDownPyramid.__call__", "pyramid")
    tracer.wrap(Conv2d, "__call__", "Conv2d.__call__", lambda args: args[0].name, LAYER)
    for module, short in ((layers, "layers"), (edge_attention, "edge_attention"),
                          (verify, "verify")):
        tracer.wrap(module, "conv2d", f"{short}.conv2d", "tensor.conv2d", LAYER,
                    after=tracer.count_conv)
    tracer.wrap(report, "build_report", "report.build_report", "report")
    tracer.wrap(tensor, "backward", "tensor.backward", "tensor.backward")
    tracer.wrap(gradcheck, "backward", "gradcheck.backward", "tensor.backward")
    if "conv2d" not in tensor.BACKWARD:
        raise MissingTarget("trace target BACKWARD['conv2d'] does not exist")
    for op in list(tensor.BACKWARD):
        tracer.wrap(tensor.BACKWARD, op, f"BACKWARD[{op!r}]", f"tensor.backward.{op}")
    tracer.patch(verify, "grad_check", "verify.grad_check",
                 lambda original: _traced_grad_check(traced, original))


def _traced_grad_check(traced, original):
    """``grad_check`` in a span, with each forward it evaluates in a span of its own."""
    tracer = traced.tracer

    def wrapper(fn, inputs, *args, **kwargs):
        def forward(*values):
            tracer.calls["gradcheck.forward"] += 1
            tracer.enter("gradcheck.forward")
            try:
                return fn(*values)
            finally:
                tracer.exit()

        tracer.calls["verify.grad_check"] += 1
        tracer.enter("gradcheck")
        try:
            result = original(forward, inputs, *args, **kwargs)
        finally:
            tracer.exit()
        traced.reports.append(result)
        return result
    return wrapper


class Traced:
    """Trace state for one run: the tracer plus per-unit count snapshots."""

    def __init__(self):
        self.tracer = Tracer()
        self.reports = []  # every traced GradCheckReport
        self.snapshots = []  # (unit key, counts of that unit)
        self._last = {}

    def snapshot(self, key, tape=None):
        """Record the counts of the unit just traced; they must repeat exactly."""
        t = self.tracer
        now = {"tensor.conv2d.calls": sum(r[0] for r in t.conv.values()),
               "gradcheck.forwards": t.calls.get("gradcheck.forward", 0),
               "tensor.backward.calls": t.count("tensor.backward")}
        counts = {k: v - self._last.get(k, 0) for k, v in now.items()}
        if tape is not None:
            counts["tensor.tape.records"], counts["tensor.tape.saved_bytes"] = tape_stats(tape)
        self.snapshots.append((key, counts))
        self._last = now

    def repeat_notes(self):
        by_key = {}
        for key, counts in self.snapshots:
            by_key.setdefault(key, []).append(counts)
        notes = []
        for key, seen in by_key.items():
            if any(c != seen[0] for c in seen[1:]):
                notes.append(f"note: counts differ between units of {key}: {seen}")
            else:
                notes.append(f"counts repeat exactly over {len(seen)} unit(s) of {key}: {seen[0]}")
        return notes


PER_LAYER = (
    ("tensor.conv2d.s", "s"), ("tensor.conv2d.calls", "count"),
    ("tensor.conv2d.gflop", "GFLOP_computed"), ("tensor.conv2d.gbytes", "GB_computed"),
    ("tensor.conv2d.gflops", "GFLOP/s"), ("tensor.conv2d.flop_per_byte", "FLOP/B"),
    ("tensor.backward.s", "s"), ("tensor.backward.conv2d.s", "s"),
    ("tensor.backward.other.s", "s"), ("tensor.tape.records", "count"),
    ("tensor.tape.saved_mb", "MB"), ("network.forward.s", "s"), ("backbone.s", "s"),
    ("edge_attention.s", "s"), ("aggregation.s", "s"), ("receptive_field.s", "s"),
    ("pyramid.s", "s"), ("pyramid.s8.smooth.s", "s"), ("report.s", "s"), ("op.glue.s", "s"),
    ("gradcheck.forwards", "count"), ("gradcheck.s_per_forward", "s"),
    ("gradcheck.probes", "count"), ("gradcheck.skipped", "count"),
    ("gradcheck.useful_ratio", "ratio"), ("gradcheck.vacuous_inputs", "count"),
    ("verify.ops.s", "s"), ("verify.blocks.s", "s"), ("verify.pipeline.s", "s"),
    ("verify.failed", "count"), ("trace.overhead_s", "s"),
)
# Rows whose per-unit times add up to one operation (one suite pass on verify).
SUM_ROWS = {
    "infer": ("op.glue.s", "network.forward.s") + tuple(f"{b}.s" for b in BLOCKS) + ("report.s",),
    "train": ("op.glue.s", "network.forward.s") + tuple(f"{b}.s" for b in BLOCKS) + (
        "tensor.backward.s", "tensor.backward.conv2d.s", "tensor.backward.other.s"),
    "verify": ("op.glue.s", "verify.ops.s", "verify.blocks.s", "verify.pipeline.s"),
}


def fold(traced, per):
    """Per-layer metrics per unit (operation, or suite pass on verify).

    Block times are block self times; ``pyramid.s8.smooth.s`` and the
    ``verify.*.s`` check groups are inclusive of what they call.
    """
    t = traced.tracer
    names = {name for name, _ in t.rows}
    conv_calls = sum(r[0] for r in t.conv.values())
    flop = sum(r[1] for r in t.conv.values())
    nbytes = sum(r[2] for r in t.conv.values())
    conv_s = t.total("tensor.conv2d")
    other = sum(t.self_time(n) for n in names
                if n.startswith("tensor.backward.") and n != "tensor.backward.conv2d")
    m = {name: (0.0, unit) for name, unit in PER_LAYER}
    values = {
        "tensor.conv2d.s": conv_s / per,
        "tensor.conv2d.calls": conv_calls / per,
        "tensor.conv2d.gflop": flop / per / 1e9,
        "tensor.conv2d.gbytes": nbytes / per / 1e9,
        "tensor.conv2d.gflops": flop / conv_s / 1e9 if conv_s else 0.0,
        "tensor.conv2d.flop_per_byte": flop / nbytes if nbytes else 0.0,
        "tensor.backward.s": t.self_time("tensor.backward") / per,
        "tensor.backward.conv2d.s": t.self_time("tensor.backward.conv2d") / per,
        "tensor.backward.other.s": other / per,
        "network.forward.s": t.self_time("network.forward") / per,
        "pyramid.s8.smooth.s": t.total("pyramid.s8.smooth") / per,
        "report.s": t.self_time("report") / per,
        "op.glue.s": t.self_time("op") / per,
    }
    values.update((f"{b}.s", t.self_time(b) / per) for b in BLOCKS)
    values.update((f"verify.{g}.s", t.total(f"verify.{g}") / per) for g in THUNK_GROUPS.values())
    for name, value in values.items():
        m[name] = (value, m[name][1])
    return m


def layer_lines(traced, per, workload, layer):
    """Human-readable trace detail: span rows, conv layers, the block sum."""
    t = traced.tracer
    lines = [f"trace per unit ({per} units):"] + ["  " + row for row in t.table(per)]
    lines.append("conv layers per unit (computed counts): parent calls dims gflop seconds gflops")
    for parent, (calls, flop, nbytes, dims) in sorted(t.conv.items()):
        secs = t.rows[("tensor.conv2d", parent)][1]
        rate = f"{flop / secs / 1e9:.3g}" if secs else "-"
        lines.append(f"  {parent} {calls / per:g} {dims} {flop / per / 1e9:.4g} "
                     f"{secs / per:.4g} {rate}")
    total = sum(layer[name][0] for name in SUM_ROWS[workload])
    lines.append(f"sum of {', '.join(SUM_ROWS[workload])} = {total:.6g} s per unit")
    return lines


def tape_stats(tape):
    seen = {}
    for rec in tape.records:
        arrays = [rec.output.data] + [v for v in rec.saved.values() if isinstance(v, np.ndarray)]
        for a in arrays:
            seen[id(a)] = a.nbytes
    return len(tape.records), sum(seen.values())


class Infer:
    name = "infer"
    tape = None
    batch = 1
    bound = U32 * DEPTH * math.sqrt(K_FWD)
    targets = FORWARD_TARGETS + ("report.build_report",)
    config = RunConfig()

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        image = edgeneck.Tensor(rng.standard_normal((1, 3, 256, 256)).astype(np.float32))
        return edgeneck.Network(), image

    def step(self, state):
        net, image = state
        result = net.forward(image)
        report.build_report(self.config, result.named)
        return result

    def outputs(self, state, result):
        return {f"out.s{lv.stride}": lv.tensor.data for lv in result.outputs}

    def reference(self, state):
        net, image = state
        twin = f64_twin(net)
        result = twin.forward(edgeneck.Tensor(image.data.astype(np.float64)))
        return self.outputs(state, result)


class Train:
    name = "train"
    batch = 2
    size = 128
    bound = U32 * DEPTH * (math.sqrt(K_FWD) + math.sqrt(batch * (size // 2) ** 2))
    targets = FORWARD_TARGETS + ("tensor.backward", "BACKWARD['conv2d']")

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        dims = (self.batch, 3, self.size, self.size)
        batch = edgeneck.Tensor(rng.standard_normal(dims).astype(np.float32))
        return edgeneck.Network(), batch

    @staticmethod
    def tape(result):
        return result[0]

    def step(self, state):
        net, batch = state
        net.zero_grads()
        with edgeneck.Tape() as tape:
            outs = net.forward(batch).outputs.tensors()
            loss = pyramid_loss(outs)
        tensor.backward(tape, loss)
        return tape, loss, outs

    def outputs(self, state, result):
        net = state[0]
        _, loss, outs = result
        arrays = {"loss": loss.data}
        arrays.update((f"out.{i}", t.data) for i, t in enumerate(outs))
        arrays.update((f"grad.{p.name}", p.grad) for p in net.parameters())
        return arrays

    def reference(self, state):
        net, batch = state
        twin = f64_twin(net)
        result = self.step((twin, edgeneck.Tensor(batch.data.astype(np.float64))))
        return self.outputs((twin,), result)


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_steps(wl, seed, seconds, traced):
    """Closed loop over ``wl.step``; with ``traced``, every other step is traced.

    Set-up is timed before the loop and again after it, so its median spans
    more than one moment of a shared machine's load.
    """
    setups = []
    for _ in range(SETUP_REPEATS // 2 + 1):
        state = None  # one network alive at a time
        state, dt = timed(wl.setup, seed)
        setups.append(dt)
    wl.step(state)  # warm-up: first-touch allocations, not measured

    plain, spanned = [], []
    kept = {}  # output digest -> [arrays, operations]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        trace_this = traced is not None and i % 2 == 1
        if trace_this:
            install(traced)
            traced.tracer.enter("op")
        result, dt = timed(wl.step, state)
        if trace_this:
            traced.tracer.exit()
            traced.tracer.remove()
            traced.snapshot(wl.name, wl.tape and wl.tape(result))
        (spanned if trace_this else plain).append(dt)
        arrays = wl.outputs(state, result)
        key = digest(arrays)
        if key in kept:
            kept[key][1] += 1
        else:
            kept[key] = [{k: np.array(v) for k, v in arrays.items()}, 1]
        result = arrays = None
        i += 1
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    setups.extend(timed(wl.setup, seed)[1] for _ in range(SETUP_REPEATS // 2))

    suites = []
    for _ in range(REFERENCE_REPEATS):
        ref, dt = timed(wl.reference, state)
        suites.append(dt)
    worst, failed = 0.0, 0
    for arrays, ops in kept.values():
        err = max(rel_err(arrays[k], ref[k]) for k in ref)
        worst = max(worst, err)
        if not err <= wl.bound:
            failed += ops

    attempted = len(plain) + len(spanned)
    lat = plain or spanned
    tail_value, tail_pct, n = tail(lat)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "suite_s": (statistics.fmean(suites), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra = {
        "images_per_s": (wl.batch * attempted / wall, "1/s"),
        "failed_ratio": (failed / attempted, "ratio"),
        "out_rel_err": (worst, "ratio"),
    }
    notes = [
        f"latency_tail_s is p{tail_pct:.1f} of {n} operations",
        f"out_rel_err bound {wl.bound:.3g} (float64 reference, normwise)",
        f"suite_s is the float64 reference run, mean of {REFERENCE_REPEATS}",
        f"distinct outputs over {attempted} operations: {len(kept)}",
    ]
    layer = None
    if traced is not None:
        traced.tracer.require(wl.targets)
        layer = fold(traced, len(spanned))
        layer["trace.overhead_s"] = (statistics.median(spanned) - statistics.median(plain), "s")
        if wl.tape:
            counts = traced.snapshots[0][1]
            layer["tensor.tape.records"] = (counts["tensor.tape.records"], "count")
            layer["tensor.tape.saved_mb"] = (counts["tensor.tape.saved_bytes"] / 1e6, "MB")
        notes.append(f"traced unit: one operation; {len(spanned)} traced, {len(plain)} plain, "
                     f"interleaved")
        notes.append(f"traced latency_p50_s {statistics.median(spanned):.6g} s")
    return dict(correct=failed == 0, attempted=attempted, failed=failed, e2e=e2e,
                extra=extra, layer=layer, notes=notes, units=len(spanned))


def grad_check_forwards(rep):
    """Forwards one grad_check ran: one taped, then two per attempted probe."""
    return 1 + 2 * sum(e.probed + e.skipped for e in rep.entries)


def _check_report_ok(rep):
    """A gradient-check report is well formed: entries, counts, a finite error."""
    return (len(rep.entries) > 0 and math.isfinite(rep.max_rel_err)
            and all(e.probed >= 0 and e.skipped >= 0 for e in rep.entries))


def run_verify(seed, seconds, traced):
    """Whole cycles over the seed list; latency is per suite pass."""
    k = seed % len(VERIFY_SEEDS)
    order = VERIFY_SEEDS[k:] + VERIFY_SEEDS[:k]

    def setup():
        return {s: verify.checks_for_scope("all", s) for s in order}

    setups = [timed(setup)[1] for _ in range(VERIFY_SETUP_REPEATS // 2)]
    checks, first = timed(setup)
    setups.append(first)

    plain, spanned = [], []  # op and block checks, untraced and traced, paired
    passes = []
    failed = attempted = probes = forwards = 0
    well_formed = True
    start = time.perf_counter()
    cycle = 0.0
    while not passes or time.perf_counter() - start + cycle <= seconds:
        c0 = time.perf_counter()
        for s in order:
            p0 = time.perf_counter()
            for label, thunk in checks[s]:
                group = THUNK_GROUPS.get(label.split(".", 1)[0], label.split(".", 1)[0])
                pipeline = group == "pipeline"
                if traced is not None and not pipeline:
                    plain.append(timed(thunk)[1])
                if traced is not None:
                    install(traced)
                    traced.tracer.calls[f"verify thunk {group}"] += 1
                    traced.tracer.enter("op")
                    traced.tracer.enter(f"verify.{group}")
                rep, dt = timed(thunk)
                if traced is not None:
                    traced.tracer.exit()
                    traced.tracer.exit()
                    traced.tracer.remove()
                    if not pipeline:
                        spanned.append(dt)
                attempted += 1
                failed += not rep.ok
                well_formed = well_formed and _check_report_ok(rep)
                probes += rep.probed
                if pipeline:
                    forwards += grad_check_forwards(rep)
            passes.append(time.perf_counter() - p0)
            if traced is not None:
                traced.snapshot(f"seed {s}")
        cycle = time.perf_counter() - c0
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    setups.extend(timed(setup)[1] for _ in range(VERIFY_SETUP_REPEATS // 2))

    tail_value, tail_pct, n = tail(passes)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(passes), "s"),
        "latency_tail_s": (tail_value, "s"),
        "suite_s": (statistics.fmean(passes), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra = {
        "probes_per_s": (probes / wall, "1/s"),
        "images_per_s": (forwards / wall, "1/s"),  # the 64x64 forwards of pipeline.full
        "failed_ratio": (failed / attempted, "ratio"),
    }
    notes = [
        f"seed list {list(order)}, {len(passes)} suite passes, {attempted} checks",
        f"latency_tail_s is p{tail_pct:.1f} of {n} suite passes",
    ]
    layer = None
    if traced is not None:
        tracer = traced.tracer
        tracer.require(FORWARD_TARGETS + (
            "verify.grad_check", "gradcheck.backward", "BACKWARD['conv2d']", "verify.conv2d",
            "verify thunk ops", "verify thunk blocks", "verify thunk pipeline"))
        layer = fold(traced, len(passes))
        layer["trace.overhead_s"] = (statistics.median(spanned) - statistics.median(plain), "s")
        reps = traced.reports
        probed = sum(r.probed for r in reps)
        skip = sum(r.skipped for r in reps)
        derived = sum(grad_check_forwards(r) for r in reps)
        counted = tracer.calls.get("gradcheck.forward", 0)
        per = len(passes)
        layer.update({
            "gradcheck.forwards": (counted / per, "count"),
            "gradcheck.s_per_forward": (tracer.total("gradcheck.forward") / max(counted, 1), "s"),
            "gradcheck.probes": (probed / per, "count"),
            "gradcheck.skipped": (skip / per, "count"),
            "gradcheck.useful_ratio": (probed / max(probed + skip, 1), "ratio"),
            "gradcheck.vacuous_inputs": (
                sum(e.probed == 0 for r in reps for e in r.entries) / per, "count"),
            "verify.failed": (sum(not r.ok for r in reps) / per, "count"),
        })
        notes.append(f"traced unit: one suite pass; trace.overhead_s is per check, from "
                     f"{len(plain)} op and block checks run untraced then traced")
        notes.append(f"traced suite pass {statistics.fmean(passes) - sum(plain) / len(passes):.6g} s "
                     f"(without the untraced repeats)")
        if derived != counted:
            notes.append(f"note: gradcheck.forwards counted {counted} != {derived} derived "
                         f"from the reports")
    return dict(correct=well_formed, attempted=attempted, failed=failed, e2e=e2e,
                extra=extra, layer=layer, notes=notes, units=len(passes))
