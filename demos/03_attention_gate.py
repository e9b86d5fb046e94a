"""What the channel attention gate actually does to a feature map.

The gate squeezes each channel to two statistics (mean and max over the
spatial grid), pushes both through a shared two-layer bottleneck, and
sigmoids the sum into one multiplier per channel.  Multipliers live in
(0, 1), so the gate can only shrink a channel, never flip or grow it.
"""

import numpy as np

import edgeneck as en
from edgeneck.edge_attention import ChannelAttention


def main():
    rng = np.random.default_rng(3)
    gate = ChannelAttention("demo.gate", en.Params(rng, np.float64), channels=8, reduction=4)

    x = en.Tensor(rng.standard_normal((1, 8, 6, 6)))
    out = gate(x)

    # Recover the per-channel multiplier the gate applied.
    ratio = out.data / x.data
    per_channel = ratio.reshape(8, -1)
    print("channel  multiplier   spread within channel")
    for c in range(8):
        vals = per_channel[c]
        print(f"   {c}      {vals.mean():8.5f}    {np.ptp(vals):.2e}")

    print("all multipliers in (0, 1):",
          bool(np.all((per_channel > 0) & (per_channel < 1))))
    print("|out| <= |x| everywhere:",
          bool(np.all(np.abs(out.data) <= np.abs(x.data))))

    # With nothing to look at, the bottleneck sees zeros, the sigmoid sits
    # at one half, and a half of zero is still zero.
    silent = gate(en.Tensor(np.zeros((1, 8, 6, 6), np.float64)))
    print("zero input -> zero output:", not silent.data.any())


if __name__ == "__main__":
    main()
