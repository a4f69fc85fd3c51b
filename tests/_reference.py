"""Brute-force reference implementations used as oracles by the test suite.

Everything here is written with plain nested loops and direct formula
evaluation, deliberately sharing no code with the library. Slow but obvious.
"""

import math

import numpy as np

from lacuna import textures


def ref_out_size(size, kernel, stride, dilation, padding):
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def ref_pool(x, mode, kernel_h, kernel_w, stride_h, stride_w, dilation=1, padding=0):
    """Nested-loop pooling. mode in {sum, avg, max, min, l2}."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    oh = ref_out_size(h, kernel_h, stride_h, dilation, padding)
    ow = ref_out_size(w, kernel_w, stride_w, dilation, padding)
    out = np.zeros((n, c, oh, ow))
    for b in range(n):
        for ch in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    cells = []
                    real = []
                    for ki in range(kernel_h):
                        for kj in range(kernel_w):
                            ii = oi * stride_h - padding + ki * dilation
                            jj = oj * stride_w - padding + kj * dilation
                            inside = 0 <= ii < h and 0 <= jj < w
                            v = x[b, ch, ii, jj] if inside else 0.0
                            cells.append(v)
                            if inside:
                                real.append(x[b, ch, ii, jj])
                    if mode == "sum":
                        acc = 0.0
                        for v in cells:
                            acc += v
                        out[b, ch, oi, oj] = acc
                    elif mode == "avg":
                        acc = 0.0
                        for v in cells:
                            acc += v
                        out[b, ch, oi, oj] = acc / (kernel_h * kernel_w)
                    elif mode == "l2":
                        acc = 0.0
                        for v in cells:
                            acc += v * v
                        out[b, ch, oi, oj] = math.sqrt(acc / (kernel_h * kernel_w))
                    elif mode == "max":
                        out[b, ch, oi, oj] = max(real)
                    elif mode == "min":
                        out[b, ch, oi, oj] = min(real)
                    else:
                        raise ValueError(mode)
    return out


def ref_bilinear(x, target_h, target_w):
    """Direct half-pixel-center bilinear formula, one output cell at a time."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, target_h, target_w))
    for b in range(n):
        for ch in range(c):
            for oi in range(target_h):
                si = min(max((oi + 0.5) * h / target_h - 0.5, 0.0), h - 1.0)
                i0 = int(math.floor(si))
                i1 = min(i0 + 1, h - 1)
                fi = si - i0
                for oj in range(target_w):
                    sj = min(max((oj + 0.5) * w / target_w - 0.5, 0.0), w - 1.0)
                    j0 = int(math.floor(sj))
                    j1 = min(j0 + 1, w - 1)
                    fj = sj - j0
                    out[b, ch, oi, oj] = (
                        x[b, ch, i0, j0] * (1 - fi) * (1 - fj)
                        + x[b, ch, i0, j1] * (1 - fi) * fj
                        + x[b, ch, i1, j0] * fi * (1 - fj)
                        + x[b, ch, i1, j1] * fi * fj
                    )
    return out


def ref_mix(stacked, weights, bias):
    """Per-cell dot product of each channel group with its weight vector."""
    stacked = np.asarray(stacked, dtype=np.float64)
    n, cs, h, w = stacked.shape
    c, s = weights.shape
    assert cs == c * s
    out = np.zeros((n, c, h, w))
    for b in range(n):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    acc = bias[ch]
                    for sc in range(s):
                        acc += weights[ch, sc] * stacked[b, ch * s + sc, i, j]
                    out[b, ch, i, j] = acc
    return out


def ref_variance_ratio(x, kernel_h, kernel_w, stride_h, stride_w):
    """Per-window population variance over squared mean (valid windows)."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    oh = ref_out_size(h, kernel_h, stride_h, 1, 0)
    ow = ref_out_size(w, kernel_w, stride_w, 1, 0)
    out = np.zeros((n, c, oh, ow))
    for b in range(n):
        for ch in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    vals = [
                        x[b, ch, oi * stride_h + ki, oj * stride_w + kj]
                        for ki in range(kernel_h)
                        for kj in range(kernel_w)
                    ]
                    mu = sum(vals) / len(vals)
                    var = sum((v - mu) ** 2 for v in vals) / len(vals)
                    out[b, ch, oi, oj] = var / (mu * mu)
    return out


def _fold(t, n):
    """Mirror-without-edge index fold (matches reflect padding)."""
    if n == 1:
        return 0
    while t < 0 or t > n - 1:
        if t < 0:
            t = -t
        else:
            t = 2 * (n - 1) - t
    return t


BINOMIAL5 = np.outer([1, 4, 6, 4, 1], [1, 4, 6, 4, 1]) / 256.0


def ref_blur_decimate(x):
    """Reflect-padded 5x5 binomial blur followed by keep-even decimation."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    blurred = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for a in range(5):
                        for d in range(5):
                            ii = _fold(i + a - 2, h)
                            jj = _fold(j + d - 2, w)
                            acc += BINOMIAL5[a, d] * x[b, ch, ii, jj]
                    blurred[b, ch, i, j] = acc
    return blurred[:, :, ::2, ::2]


def ref_box_index(g, r):
    """Bottom-to-top index of the height-r box holding gray level g."""
    return math.floor(g / r) + 1


def ref_dbc_heights(x, r, kernel, stride):
    """Column heights from stacked height-r boxes, one window at a time.

    Max/min pooling uses a dilation-r window padded so output dims equal the
    input dims (extremes taken over in-bounds cells only), mirroring the
    library's same-size stage; kernel must be odd.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    pad = r * (kernel - 1) // 2
    oh = ref_out_size(h, kernel, stride, r, pad)
    ow = ref_out_size(w, kernel, stride, r, pad)
    out = np.zeros((n, c, oh, ow))
    for b in range(n):
        for ch in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    vals = []
                    for ki in range(kernel):
                        for kj in range(kernel):
                            ii = oi * stride - pad + ki * r
                            jj = oj * stride - pad + kj * r
                            if 0 <= ii < h and 0 <= jj < w:
                                vals.append(x[b, ch, ii, jj])
                    v = ref_box_index(max(vals), r)
                    u = ref_box_index(min(vals), r)
                    out[b, ch, oi, oj] = v - u - 1
    return out


def ref_dbc_lacunarity_plane(x, r, kernel, stride, eps):
    """Single-dilation box-counting lacunarity evaluated straight from masses."""
    heights = ref_dbc_heights(x, r, kernel, stride)
    mass = ref_pool(heights, "sum", kernel, kernel, stride, stride)
    occupancy = ref_pool(heights, "avg", kernel, kernel, stride, stride)
    return (mass * mass * occupancy) / (mass * occupancy + eps) ** 2


def ref_scatter_ratio(features, labels):
    """Between/within scatter sums via explicit per-class loops."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    mu = features.mean(axis=0)
    between = 0.0
    within = 0.0
    for cls in np.unique(labels):
        grp = features[labels == cls]
        mu_c = grp.mean(axis=0)
        between += len(grp) * float(((mu_c - mu) ** 2).sum())
        within += float(((grp - mu_c) ** 2).sum())
    return between, within


# ------------------------------------------------------------ gap painters
# One disk per call, in draw order: the loop form of the texture painters.

def ref_paint_disk(mask, ci, cj, radius):
    reach = int(math.ceil(radius))
    i0, i1 = max(0, int(ci) - reach), min(mask.shape[0], int(ci) + reach + 1)
    j0, j1 = max(0, int(cj) - reach), min(mask.shape[1], int(cj) + reach + 1)
    if i0 >= i1 or j0 >= j1:
        return
    di = np.arange(i0, i1, dtype=np.float64)[:, None] - ci
    dj = np.arange(j0, j1, dtype=np.float64)[None, :] - cj
    mask[i0:i1, j0:j1] |= di * di + dj * dj <= radius * radius


def ref_lattice_mask(size, frac, rng, period=8):
    radius = period * math.sqrt(frac / math.pi)
    mask = np.zeros((size, size), dtype=bool)
    for ci in range(period // 2, size, period):
        for cj in range(period // 2, size, period):
            ref_paint_disk(mask, float(ci), float(cj), radius)
    return mask


def ref_jitter_mask(size, frac, rng, period=8):
    mean_sq = frac * period * period / math.pi
    r_small = math.sqrt(0.5 * mean_sq)
    r_large = math.sqrt(1.5 * mean_sq)
    slack = period / 2.0 - 1.0
    mask = np.zeros((size, size), dtype=bool)
    for bi in range(period // 2, size, period):
        for bj in range(period // 2, size, period):
            ci = bi + rng.uniform(-slack, slack)
            cj = bj + rng.uniform(-slack, slack)
            radius = r_small if rng.random() < 0.5 else r_large
            ref_paint_disk(mask, ci, cj, radius)
    return mask


def ref_cluster_mask(size, frac, rng, centres=None):
    """Loop cluster painter; appends each child's (ci, cj) to `centres`."""
    target = frac * size * size
    mask = np.zeros((size, size), dtype=bool)
    radius_cap = size / 7.0
    for _ in range(4 * size):
        pi, pj = rng.uniform(0.0, size, size=2)
        for _ in range(int(rng.poisson(4)) + 1):
            ci = pi + rng.normal(0.0, size / 16.0)
            cj = pj + rng.normal(0.0, size / 16.0)
            radius = min(1.2 * (1.0 + rng.pareto(1.7)), radius_cap)
            if centres is not None:
                centres.append((ci, cj))
            ref_paint_disk(mask, ci, cj, radius)
        if mask.sum() >= target:
            break
    return mask


# ----------------------------------------------------------------- backbone

def ref_conv2d(x, w, b, stride, padding):
    """Stride/pad convolution over the whole batch at once."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for ki in range(kh):
        for kj in range(kw):
            view = xp[:, :,
                      ki:ki + (out_h - 1) * stride + 1:stride,
                      kj:kj + (out_w - 1) * stride + 1:stride]
            out += np.einsum("nihw,oi->nohw", view, w[:, :, ki, kj])
    return out + b[None, :, None, None]


def ref_backbone_features(weights, biases, images):
    """Stride-2 conv + ReLU stack applied to the whole batch in one pass."""
    x = np.asarray(images, dtype=np.float64) / 255.0
    for w, b in zip(weights, biases):
        x = np.maximum(ref_conv2d(x, w, b, stride=2, padding=1), 0.0)
    return x


# ------------------------------------------------------- texture generation

def ref_global_lacunarity(image, epsilon=1e-6):
    """Unsquashed base lacunarity of the whole image as one window:
    n * sum(x^2) / (sum(x)^2 + epsilon) - 1, clamped at 0, from exact sums."""
    x = np.asarray(image, dtype=np.float64).ravel()
    s1, s2 = math.fsum(x), math.fsum(x * x)
    return max(x.size * s2 / (s1 * s1 + epsilon) - 1.0, 0.0)


def ref_generate_texture(grade, size, seed, max_attempts=100):
    """The retry loop: redraw until the measured global lacunarity is in band.

    Attempt a draws from default_rng([seed, a, label]) with the library's
    painters and count matching (their own oracles are above), so this
    pins only the band decision.  Returns the sample and the global
    lacunarity it measured.
    """
    frac = textures.GRADE_GAP_FRACTION[grade]
    count = round(frac * size * size)
    lo, hi = textures.GRADE_BANDS[grade]
    label = textures.GRADES.index(grade)
    painter = textures._PAINTERS[textures.ARRANGEMENTS[label]]
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt, label])
        mask = textures._match_count(painter(size, frac, rng), count, rng)
        image = np.where(mask, textures.GAP_VALUE, textures.BACKGROUND_VALUE)
        measured = ref_global_lacunarity(image)
        if lo <= measured <= hi:
            sample = textures.TextureSample(image=image, label=label,
                                            grade=grade, seed=seed)
            return sample, measured
    raise textures.TextureGenerationError(
        f"no {grade} draw hit band ({lo}, {hi}) in {max_attempts} attempts")
