"""Measure how far each wide-field branch can see.

Feeds a single impulse through every branch and prints the footprint of
the response.  The asymmetric 1xk / kx1 pairs with dilation push the
reach out to +/-21 pixels while keeping the parameter count tiny.
"""

import numpy as np

import edgeneck as en


def footprint(response, center):
    ys, xs = np.nonzero(np.abs(response).sum(axis=(0, 1)))
    return (int(ys.min() - center), int(ys.max() - center),
            int(xs.min() - center), int(xs.max() - center))


def sketch(response, center, radius=22):
    rows = []
    grid = np.abs(response).sum(axis=(0, 1)) > 0
    for y in range(center - radius, center + radius + 1, 2):
        row = "".join("#" if grid[y, x] else "."
                      for x in range(center - radius, center + radius + 1, 2))
        rows.append("    " + row)
    return "\n".join(rows)


def main():
    block = en.WideFieldBlock("demo.wide", en.Params(np.random.default_rng(7), np.float64),
                              c_in=2, c_out=4)

    center = 23
    data = np.zeros((1, 2, 47, 47))
    data[0, :, center, center] = 1.0
    impulse = en.Tensor(data)

    print("branch  kernel reach (dy-, dy+, dx-, dx+)   expected")
    for k in range(1, 6):
        got = footprint(block.branch_response(impulse, k).data, center)
        ey, ex = en.receptive_extent(k)
        print(f"   {k}    {got!s:<28}  +/-({ey}, {ex})")

    print()
    print("support of branch 4 (dilated cross, every 2nd pixel shown):")
    print(sketch(block.branch_response(impulse, 4).data, center))

    gate = block.gate(impulse)
    gy1, gy2, gx1, gx2 = footprint(gate.data, center)
    print()
    print(f"gate footprint: rows {gy1}..{gy2}, cols {gx1}..{gx2}")

    # The block multiplies a pointwise projection by that gate, so the
    # output for an impulse stays on the impulse pixel; the wide branches
    # decide how strongly it passes, not where it lands.
    out = block(impulse)
    print("full block output is non-negative:", bool((out.data >= 0).all()))
    oy1, oy2, ox1, ox2 = footprint(out.data, center)
    print(f"full block footprint: rows {oy1}..{oy2}, cols {ox1}..{ox2}")


if __name__ == "__main__":
    main()
