"""Extract edge maps from a synthetic scene and write them as PGM files.

Builds a gray image with a bright disc and a vertical step, runs the
averaged depthwise Sobel filters, and saves the input plus the combined
magnitude next to this script.  Open the outputs in any image viewer.
"""

import os

import numpy as np

import edgeneck as en
from edgeneck.netpbm import write_image

HERE = os.path.dirname(os.path.abspath(__file__))


def scene(size=128):
    img = np.zeros((size, size), np.float64)
    img[:, size // 2:] = 0.35
    yy, xx = np.mgrid[0:size, 0:size]
    disc = (yy - size * 0.4) ** 2 + (xx - size * 0.3) ** 2 < (size * 0.18) ** 2
    img[disc] = 0.9
    return img


def to_bytes(arr):
    arr = np.asarray(arr, np.float64)
    span = arr.max() - arr.min()
    if span == 0:
        return np.zeros(arr.shape, np.uint8)
    return np.round((arr - arr.min()) / span * 255).astype(np.uint8)


def main():
    img = scene()
    x = en.Tensor(img[None, None].astype(np.float32))

    gx, gy = en.deep_sobel(x)
    mag = en.edge_magnitude(gx, gy)

    # Flat regions stay exactly zero, including along the border, because
    # the pre-filter pad replicates edge pixels instead of inserting zeros.
    interior_flat = mag.data[0, 0, 100:120, 5:15]
    print("magnitude over a flat patch:", float(np.abs(interior_flat).max()))
    print("magnitude at the step column:", float(mag.data[0, 0, 100, 64]))

    write_image(os.path.join(HERE, "scene.pgm"), to_bytes(img))
    write_image(os.path.join(HERE, "scene_edges.pgm"), to_bytes(mag.data[0, 0]))
    print("wrote scene.pgm and scene_edges.pgm in", HERE)

    # The same operation is exposed as a CLI subcommand:
    #   edgeneck edge demos/scene.pgm demos/edges.pgm


if __name__ == "__main__":
    main()
