"""Follow a five-level feature pyramid through aggregation and fusion.

The backbone emits features at strides 4..64.  Aggregation resamples
neighbours onto four target grids and concatenates them; the top-down
pyramid then walks coarse to fine, adding an upsampled copy of each
coarser output into the next finer one.  Levels travel between blocks as
``{stride: tensor}`` dicts, ordered fine to coarse.
"""

import numpy as np

import edgeneck as en


def show(tag, levels):
    parts = [f"s{stride}:{t.dims[1]}c{t.dims[2]}x{t.dims[3]}" for stride, t in levels.items()]
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
    print("planned channels:", en.plan_channels(plan, [t.dims[1] for t in feats.values()]))

    agg = en.aggregate(feats, "full")
    pyramid = en.TopDownPyramid("demo.pyr", en.Params(np.random.default_rng(13), np.float32),
                                [(stride, t.dims[1]) for stride, t in agg.items()],
                                width=8)
    fused = pyramid(agg)
    show("fused", fused)

    # The coarse-to-fine direction is easy to demonstrate: wiggle one input
    # level and watch which outputs move.
    for bump in agg:
        levels = dict(agg)
        levels[bump] = en.Tensor(agg[bump].data + 1.0)
        out = pyramid(levels)
        moved = [stride for stride in fused
                 if not np.array_equal(fused[stride].data, out[stride].data)]
        print(f"perturb s{bump:<3} -> outputs that changed: {moved}")


if __name__ == "__main__":
    main()
