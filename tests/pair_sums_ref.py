"""The (n, K, K) pair kernel: the reference for ``weakval._pair_sums``.

The pair sums of ``post_selected_mean`` as they were first written: each
chunk of readings forms its (s, K, K) block of overlaps, ``einsum`` sums
row i of each reading over j, and each reading's K rows are summed in
turn.  ``weakval._pair_sums`` holds the chunk sample-major, as (K, K, s),
and sums a whole row of samples per numpy call.  For K <= 7 the two must
agree bit for bit, signs of zero included; from K = 8 numpy sums a
reading's terms pairwise here, so they agree to roundoff.
"""

from __future__ import annotations

import numpy as np


def pair_sums(amps: np.ndarray, disp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and rate of ``post_selected_mean`` from the K^2 pair overlaps."""
    weights = np.real(np.outer(amps, amps.conj()))  # symmetric, (K, K)
    num, rate = np.empty((2, disp.shape[0]))
    # chunks of about 512 kB of pair overlaps, which stay in cache
    step = max(1, 65536 // amps.size**2)
    for lo in range(0, disp.shape[0], step):
        d = disp[lo : lo + step]
        ov = d[:, :, None] - d[:, None, :]
        ov *= ov
        ov *= -0.125
        np.exp(ov, out=ov)
        rows = np.einsum("kij,ij->ki", ov, weights)  # r_i per reading, (step, K)
        rate[lo : lo + step] = rows.sum(axis=1)
        num[lo : lo + step] = (d * rows).sum(axis=1)
    return num, rate
