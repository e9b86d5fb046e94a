"""Follow a five-level feature pyramid through aggregation and fusion.

The backbone emits features at strides 4..64.  Aggregation resamples
neighbours onto four target grids and concatenates them; the top-down
pyramid then walks coarse to fine, adding an upsampled copy of each
coarser output into the next finer one.
"""

import numpy as np

import edgeneck as en


def show(tag, levels):
    parts = [f"s{lv.stride}:{lv.channels}c{lv.tensor.dims[2]}x{lv.tensor.dims[3]}"
             for lv in levels]
    print(f"{tag:<11}" + "  ".join(parts))


def main():
    backbone = en.Backbone("demo.bb", en.Params(np.random.default_rng(11), np.float32),
                           (4, 8, 8, 16, 16))
    image = en.noise_image(11, 128, 128)
    feats = backbone(image)
    show("backbone", feats)

    for mode in en.MODES:
        agg = en.aggregate(feats, mode)
        show(f"agg {mode}", agg)

    # Channel counts are predictable from the plan alone, before any data
    # moves: each target level is the concat of its contributing sources.
    plan = en.aggregation_plan("full")
    print("planned channels:", en.plan_channels(plan, feats.channels))

    agg = en.aggregate(feats, "full")
    pyramid = en.TopDownPyramid("demo.pyr", en.Params(np.random.default_rng(13), np.float32),
                                [(lv.stride, lv.channels) for lv in agg],
                                width=8)
    fused = pyramid(agg)
    show("fused", fused)

    # The coarse-to-fine direction is easy to demonstrate: wiggle one input
    # level and watch which outputs move.
    base = fused
    for bump in agg.strides:
        moved = []
        levels = []
        for lv in agg:
            t = lv.tensor
            if lv.stride == bump:
                t = en.Tensor(t.data + 1.0)
            levels.append(en.PyramidLevel(lv.stride, t))
        out = pyramid(en.PyramidSet(levels))
        for a, b in zip(base, out):
            if not np.array_equal(a.tensor.data, b.tensor.data):
                moved.append(a.stride)
        print(f"perturb s{bump:<3} -> outputs that changed: {moved}")


if __name__ == "__main__":
    main()
