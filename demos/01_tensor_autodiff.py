"""A tour of the tensor core: build a graph, tape it, differentiate it.

Everything is NCHW, float32 by default.  The tape records ops only inside
a ``Tape`` context, so inference code pays nothing for autodiff.
"""

import numpy as np

import edgeneck as en


def main():
    rng = np.random.default_rng(0)

    # Forward without a tape: plain math, no recording.
    x = en.Tensor(rng.standard_normal((1, 3, 4, 4), np.float64))
    y = en.relu(x)
    print("relu kept", int((y.data > 0).sum()), "of", y.data.size, "activations")

    # Now the same with gradients.  sum(relu(x)) has gradient 1 where x > 0.
    x = en.Tensor(rng.standard_normal((1, 3, 4, 4), np.float64), requires_grad=True)
    with en.Tape() as tape:
        loss = en.sum_all(en.relu(x))
    en.backward(tape, loss)
    match = np.array_equal(x.grad, (x.data > 0).astype(np.float64))
    print("d sum(relu(x)) / dx == indicator(x > 0):", match)

    # A small conv net end to end.  Gradients reach both weight and input.
    w = en.Tensor(rng.standard_normal((2, 3, 3, 3), np.float64), requires_grad=True)
    x = en.Tensor(rng.standard_normal((1, 3, 8, 8), np.float64), requires_grad=True)
    with en.Tape() as tape:
        out = en.conv2d(x, w, spec=en.ConvSpec(padding=(1, 1)))
        loss = en.sum_all(en.mul(out, out))
    en.backward(tape, loss)
    print("conv2d: |dL/dw| l2 =", float(np.linalg.norm(w.grad)))
    print("conv2d: |dL/dx| l2 =", float(np.linalg.norm(x.grad)))

    # The gradient checker compares the taped gradient against complex-step
    # derivatives.  One call covers every input in the mapping.
    def build(xt, wt):
        y = en.conv2d(xt, wt, spec=en.ConvSpec(padding=(1, 1)))
        return en.sum_all(en.mul(y, y))

    report = en.grad_check(build, {"x": x.data, "w": w.data}, max_coords=6)
    print(report.format())


if __name__ == "__main__":
    main()
