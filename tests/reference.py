"""Independent straight-line oracles the tests compare the library against.

Everything here is deliberately naive: scalar loops, Python-float
accumulation in ascending (channel, ky, kx) order, no shared code with
the package.  The library's convolution sums in the BLAS library's order,
so float64 comparisons against the convolution oracle use the
rounding-error bound of a dot product, not bit equality.
"""

import math

import numpy as np

SOBEL_GX = ((1.0, 0.0, -1.0), (2.0, 0.0, -2.0), (1.0, 0.0, -1.0))


def gamma(n, u=2.0 ** -53):
    """Higham's gamma_n = n*u / (1 - n*u), the relative error bound of an n-term sum."""
    return n * u / (1 - n * u)


def conv2d_reference(x, w, bias=None, stride=(1, 1), padding=(0, 0),
                     dilation=(1, 1), groups=1):
    """Nested-loop cross-correlation, one rounding per term."""
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    n, c, h, wd = x.shape
    co, cpg, kh, kw = w.shape
    sy, sx = stride
    py, px = padding
    dy, dx = dilation
    oh = (h + 2 * py - dy * (kh - 1) - 1) // sy + 1
    ow = (wd + 2 * px - dx * (kw - 1) - 1) // sx + 1
    xp = np.zeros((n, c, h + 2 * py, wd + 2 * px))
    xp[:, :, py:py + h, px:px + wd] = x
    if bias is not None:
        bias = np.asarray(bias, np.float64).reshape(co)
    out = np.zeros((n, co, oh, ow))
    opg = co // groups
    for ni in range(n):
        for coi in range(co):
            g = coi // opg
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    float(xp[ni, g * cpg + ci, oy * sy + ky * dy, ox * sx + kx * dx])
                                    * float(w[coi, ci, ky, kx])
                                )
                    if bias is not None:
                        acc += float(bias[coi])
                    out[ni, coi, oy, ox] = acc
    return out


def conv2d_backward_reference(x, w, grad_out, stride=(1, 1), padding=(0, 0), dilation=(1, 1)):
    """Loop adjoint of :func:`conv2d_reference`: ``(grad_x, grad_w, grad_b)``.

    Every output position ``(n, co, oy, ox)`` and tap ``(ky, kx)`` adds its
    term into the three sums in that loop order, one rounding per term; the
    input-channel axis is a vector, which rounds each element alike.  So a
    grad_w or grad_b element sums ``N*OH*OW`` terms, and a grad_x element
    at most ``C_out*kH*kW``.  Taps that land in the zero border are dropped.
    """
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    g = np.asarray(grad_out, np.float64)
    n, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    oh, ow = g.shape[2:]
    sy, sx = stride
    py, px = padding
    dy, dx = dilation
    xp = np.zeros((n, c, h + 2 * py, wd + 2 * px))
    xp[:, :, py:py + h, px:px + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape)
    gb = np.zeros(co)
    for ni in range(n):
        for coi in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    go = float(g[ni, coi, oy, ox])
                    gb[coi] += go
                    for ky in range(kh):
                        for kx in range(kw):
                            iy, ix = oy * sy + ky * dy, ox * sx + kx * dx
                            gxp[ni, :, iy, ix] += go * w[coi, :, ky, kx]
                            gw[coi, :, ky, kx] += go * xp[ni, :, iy, ix]
    return gxp[:, :, py:py + h, px:px + wd], gw, gb.reshape(1, co, 1, 1)


def deep_sobel_reference(x):
    """Per-channel Sobel correlation, channel mean, as plain loops.

    Border reads clamp to the nearest valid pixel (replicate convention),
    so flat images come out exactly zero all the way to the edge.
    """
    x = np.asarray(x, np.float64)
    n, c, h, w = x.shape
    gx = np.zeros((n, 1, h, w))
    gy = np.zeros((n, 1, h, w))
    for ni in range(n):
        for y in range(h):
            for col in range(w):
                ax = 0.0
                ay = 0.0
                for ci in range(c):
                    for ky in range(3):
                        for kx in range(3):
                            sy = min(max(y + ky - 1, 0), h - 1)
                            sx = min(max(col + kx - 1, 0), w - 1)
                            v = float(x[ni, ci, sy, sx])
                            ax += SOBEL_GX[ky][kx] * v
                            ay += SOBEL_GX[kx][ky] * v
                gx[ni, 0, y, col] = ax / c
                gy[ni, 0, y, col] = ay / c
    return gx, gy


def linear_reference(x, w, bias=None):
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    n, c = x.shape[0], x.shape[1]
    co = w.shape[0]
    out = np.zeros((n, co, 1, 1))
    for ni in range(n):
        for k in range(co):
            acc = 0.0
            for i in range(c):
                acc += float(w[k, i, 0, 0]) * float(x[ni, i, 0, 0])
            if bias is not None:
                acc += float(np.asarray(bias).reshape(co)[k])
            out[ni, k, 0, 0] = acc
    return out


def channel_attention_reference(x, w0, w1):
    """Dense-arithmetic channel gate; returns (output, per-channel scales)."""
    x = np.asarray(x, np.float64)
    w0 = np.asarray(w0, np.float64)
    w1 = np.asarray(w1, np.float64)
    n, c, h, w = x.shape
    hidden = w0.shape[0]
    out = np.zeros_like(x)
    scales = np.zeros((n, c))

    def squeeze(desc):
        hid = [max(0.0, sum(float(w0[j, i, 0, 0]) * desc[i] for i in range(c)))
               for j in range(hidden)]
        return [sum(float(w1[k, j, 0, 0]) * hid[j] for j in range(hidden))
                for k in range(c)]

    for ni in range(n):
        avg = [float(x[ni, ci].mean()) for ci in range(c)]
        mx = [float(x[ni, ci].max()) for ci in range(c)]
        a = squeeze(avg)
        m = squeeze(mx)
        for k in range(c):
            s = 1.0 / (1.0 + math.exp(-(a[k] + m[k])))
            scales[ni, k] = s
            out[ni, k] = s * x[ni, k]
    return out, scales


def sobel_magnitude_reference(gray):
    """HxW edge magnitude via explicit shifted sums (replicated border)."""
    img = np.asarray(gray, np.float64)
    h, w = img.shape
    gxk = np.asarray(SOBEL_GX)
    gyk = gxk.T
    padded = np.pad(img, 1, mode="edge")
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for ky in range(3):
        for kx in range(3):
            window = padded[ky:ky + h, kx:kx + w]
            gx += gxk[ky, kx] * window
            gy += gyk[ky, kx] * window
    return np.sqrt(gx * gx + gy * gy)


def normalize_map_reference(mag):
    """Min-max scale to 0..255 uint8 with the flat-map guard."""
    spread = mag.max() - mag.min()
    if spread <= 0:
        return np.zeros(mag.shape, np.uint8)
    return np.rint((mag - mag.min()) / spread * 255.0).astype(np.uint8)
