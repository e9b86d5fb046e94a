"""Run the whole network once and poke at everything it produced.

Shows the forward result bundle, the run report, and the weight
container round trip.  Uses a small channel plan so it finishes fast.
"""

import os
import tempfile

import numpy as np

import edgeneck as en
from edgeneck.report import build_report, parse_report
from edgeneck.weights import load_into_parameters, read_container, write_container


def main():
    net = en.Network(seed=4, channels=(4, 8, 8, 16, 16),
                     pyramid_width=8, reduction=4)
    image = en.noise_image(4, 128, 128)

    result = net.forward(image)

    print("stage timings (seconds):")
    for stage, seconds in result.times.items():
        print(f"  {stage:<10} {seconds:.4f}")

    print()
    print("named tensors:")
    for name, t in result.named.items():
        print(f"  {name:<10} {'x'.join(map(str, t.dims))}")

    cfg = en.RunConfig(input="noise:128x128", seed=4,
                       channels=(4, 8, 8, 16, 16), pyramid_width=8,
                       reduction_ratio=4)
    report = build_report(cfg, result.named)
    print()
    print("report extract:")
    for line in report.splitlines():
        if line.startswith(("stats.out", "config.")):
            print(" ", line)

    # Round-trip the parameters through the binary container and prove the
    # reloaded network reproduces the forward pass bit for bit.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.erlw")
        entries = {p.name: p.value.data for p in net.parameters()}
        write_container(path, entries)

        twin = en.Network(seed=999, channels=(4, 8, 8, 16, 16),
                          pyramid_width=8, reduction=4)
        load_into_parameters(twin.parameter_map(), read_container(path))
        again = twin.forward(image)
        same = all(
            np.array_equal(result.named[k].data, again.named[k].data)
            for k in result.named
        )
        print()
        print("reloaded weights reproduce the run bit-exactly:", same)

    # The parsed report round-trips too; stats can be checked offline.
    parsed = parse_report(report)
    print("parsed stats.out.s8.l2 =", parsed["stats.out.s8.l2"])


if __name__ == "__main__":
    main()
