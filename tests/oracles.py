"""Independent brute-force oracles used to freeze expected values.

Everything here is written as plainly as possible (explicit loops, direct
formula evaluation) and stays independent of the library code paths it
checks.
"""

import numpy as np


def dft4_loops(f):
    """Direct quadruple-loop evaluation of the 4-D DFT."""
    n_, m_, p_, q_ = f.shape
    out = np.zeros((n_, m_, p_, q_), dtype=complex)
    for h in range(n_):
        for i in range(m_):
            for j in range(p_):
                for k in range(q_):
                    acc = 0.0 + 0.0j
                    for n in range(n_):
                        for m in range(m_):
                            for p in range(p_):
                                for q in range(q_):
                                    ang = h * n / n_ + i * m / m_ + j * p / p_ + k * q / q_
                                    acc += f[n, m, p, q] * np.exp(-2j * np.pi * ang)
                    out[h, i, j, k] = acc
    return out


def dft2_loops(f):
    """Direct 2-D DFT over the first two axes (per trailing index)."""
    n_, m_ = f.shape[:2]
    rest = f.shape[2:]
    out = np.zeros(f.shape, dtype=complex)
    for h in range(n_):
        for i in range(m_):
            acc = np.zeros(rest, dtype=complex)
            for n in range(n_):
                for m in range(m_):
                    acc += f[n, m] * np.exp(-2j * np.pi * (h * n / n_ + i * m / m_))
            out[h, i] = acc
    return out


def decode_adc_bytes(data, lanes, num_rx, num_adc_samples, num_chirp_slots):
    """Index-by-index decode of the documented capture layout.

    Returns channels[r][j] lists, j running over (chirp slot, sample).
    """
    ints = []
    for off in range(0, len(data), 2):
        ints.append(int.from_bytes(data[off:off + 2], "little", signed=True))
    half = lanes // 2
    stream = []
    for g in range(0, len(ints), lanes):
        group = ints[g:g + lanes]
        for s in range(half):
            stream.append(complex(group[s], group[half + s]))
    channels = [[] for _ in range(num_rx)]
    pos = 0
    for _slot in range(num_chirp_slots):
        for r in range(num_rx):
            for _n in range(num_adc_samples):
                channels[r].append(stream[pos])
                pos += 1
    return channels


def cube_reindex_loops(channels, num_adc_samples, num_chirps, num_tx, num_rx):
    """Nested-loop re-indexer: per-channel streams -> (n, m, v) cube."""
    cube = np.zeros((num_adc_samples, num_chirps, num_tx * num_rx), dtype=complex)
    for r in range(num_rx):
        for m in range(num_chirps):
            for t in range(num_tx):
                for n in range(num_adc_samples):
                    flat = (m * num_tx + t) * num_adc_samples + n
                    cube[n, m, t * num_rx + r] = channels[r][flat]
    return cube


def doppler_sample_enumerate(m, keep, window_frac):
    """Enumerate uniform-step index sets in the window; pick the one whose
    mean is closest to the zero-velocity center (ties: smallest start)."""
    window = max(1, min(int(round(window_frac * m)), m))
    center = m // 2
    lo = center - window // 2
    hi = lo + window  # exclusive
    step = window // keep
    assert step >= 1, "keep exceeds window"
    best = None
    for start in range(lo, hi):
        idx = [start + i * step for i in range(keep)]
        if idx[-1] >= hi:
            continue
        dist = abs(sum(idx) / keep - center)
        if best is None or dist < best[0]:
            best = (dist, idx)
    return best[1]


def cfar_loops(mag, guard, reference, pfa, alpha_override=None):
    """Cell-by-cell CA-CFAR with truncated reference ring."""
    rows, cols = mag.shape
    mask = np.zeros((rows, cols), dtype=bool)
    thr = np.full((rows, cols), np.inf)
    outer = guard + reference
    for r in range(rows):
        for c in range(cols):
            total = 0.0
            count = 0
            for rr in range(max(0, r - outer), min(rows, r + outer + 1)):
                for cc in range(max(0, c - outer), min(cols, c + outer + 1)):
                    if abs(rr - r) <= guard and abs(cc - c) <= guard:
                        continue
                    total += mag[rr, cc]
                    count += 1
            if count == 0:
                continue
            if alpha_override is not None:
                alpha = alpha_override
            else:
                alpha = count * (pfa ** (-1.0 / count) - 1.0)
            thr[r, c] = alpha * total / count
            mask[r, c] = mag[r, c] > thr[r, c]
    return mask, thr


def mean_axis1_loops(values):
    """Nested-loop mean of magnitudes along axis 1 of a (R, D, A) array."""
    r_, d_, a_ = values.shape
    out = np.zeros((r_, a_))
    for r in range(r_):
        for a in range(a_):
            s = 0.0
            for d in range(d_):
                s += abs(values[r, d, a])
            out[r, a] = s / d_
    return out


def outer_product_loops(az, el):
    """Double-loop outer product per range row."""
    r_, a_ = az.shape
    e_ = el.shape[1]
    out = np.zeros((r_, a_, e_))
    for r in range(r_):
        for i in range(a_):
            for j in range(e_):
                out[r, i, j] = az[r, i] * el[r, j]
    return out


def broadcast_add_loops(prob, pe):
    """Loop version of probability + positional-encoding combination."""
    r_, a_, e_ = prob.shape
    c_ = pe.shape[0]
    out = np.zeros((r_, c_, a_, e_))
    for r in range(r_):
        for c in range(c_):
            for i in range(a_):
                for j in range(e_):
                    out[r, c, i, j] = prob[r, i, j] + pe[c, i, j]
    return out


def bce_loops(pred, target, eps=1e-7):
    total = 0.0
    for p, g in zip(pred.ravel(), target.ravel()):
        p = min(max(p, eps), 1.0 - eps)
        total -= g * np.log(p) + (1.0 - g) * np.log(1.0 - p)
    return total


def ap_thresholds_loops(oks_values):
    """Brute-force threshold enumeration for the AP summary."""
    table = {}
    for i in range(10):
        t = (50 + 5 * i) / 100.0
        table[t] = sum(1 for v in oks_values if v >= t) / len(oks_values)
    ap = sum(table.values()) / len(table)
    return ap, table


def union_rows_loops(bins, values, union):
    """Rows of one radar's vector placed on the union bin set, one dict
    lookup per union row: a missing row is uniform over the angle bins and
    not empty, a present row is copied with its all-zero flag.

    Returns (rows, empty) with rows of shape (len(union), A).
    """
    a_ = values.shape[1]
    lookup = {}
    for i, b in enumerate(bins):
        lookup[b] = i
    rows = np.zeros((len(union), a_))
    empty = np.zeros(len(union), dtype=bool)
    for row, b in enumerate(union):
        if b in lookup:
            src = values[lookup[b]]
            all_zero = True
            for j in range(a_):
                rows[row, j] = src[j]
                if src[j] != 0.0:
                    all_zero = False
            empty[row] = all_zero
        else:
            for j in range(a_):
                rows[row, j] = 1.0 / a_
    return rows, empty
