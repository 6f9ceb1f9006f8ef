"""Independent reference for the benchmark's output checks.

Nothing here imports ``mkpolar``. The encoder multiplies by the explicit
Kronecker product of the kernel matrices; the decoder is the textbook
recursion of multi-kernel successive cancellation on the natural bit
order, with each kernel update done by enumerating all 2^p kernel inputs.
Both work on a batch of frames at once: arrays are (frames, N).

Conventions shared with the program under test: LLR = ln P(0)/P(1),
BPSK symbol 1 - 2*bit, every kernel update saturated to +-LLR_MAX, a
frozen bit decides 0 and otherwise a negative LLR decides 1.
"""

from math import prod

import numpy as np

LLR_MAX = 40.0

KERNELS = {
    2: np.array([[1, 0], [1, 1]], dtype=np.int64),
    3: np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.int64),
}


def generator(bases):
    """G_N = T_{p_1} x ... x T_{p_s}, first kernel most significant."""
    g = np.ones((1, 1), dtype=np.int64)
    for p in bases:
        g = np.kron(g, KERNELS[p]) % 2
    return g


def encode(bases, u):
    """Codewords x = u G_N of the (frames, N) input bits u."""
    return (np.asarray(u, dtype=np.int64) @ generator(bases) % 2).astype(np.uint8)


def channel_llrs(codewords, ebn0_db, rate, rng):
    """BPSK over AWGN: LLRs of the codeword bits, one normal draw per bit."""
    x = np.asarray(codewords)
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    y = (1.0 - 2.0 * x) + rng.normal(0.0, np.sqrt(sigma2), size=x.shape)
    return np.clip(2.0 * y / sigma2, -LLR_MAX, LLR_MAX)


def awgn_frame(bases, info, ebn0_db, rate, rng):
    """One simulated frame, drawn from ``rng`` in the documented order.

    The message bits of the information positions come first
    (``rng.integers(0, 2, K, uint8)``), then one normal draw per coded
    bit. Returns (u, channel LLRs).
    """
    n = prod(bases)
    u = np.zeros(n, dtype=np.uint8)
    if len(info):
        u[info] = rng.integers(0, 2, size=len(info), dtype=np.uint8)
    return u, channel_llrs(encode(bases, u[None, :])[0], ebn0_db, rate, rng)


def _kernel_tables(p):
    inputs = (np.arange(1 << p)[:, None] >> np.arange(p - 1, -1, -1)) & 1
    signs = 1.0 - 2.0 * (inputs @ KERNELS[p] % 2)
    return inputs, signs


_TABLES = {p: _kernel_tables(p) for p in KERNELS}


def kernel_update(p, t, llrs, known, mode):
    """LLR of kernel input t for every block of every frame.

    ``llrs`` is (F, p, m): output c of block r of frame f at [f, c, r].
    ``known`` is (F, t, m): the already decided inputs 0 .. t-1. Inputs
    t+1 .. p-1 are marginalized over all completions.
    """
    inputs, signs = _TABLES[p]
    metric = np.einsum("wc,fcr->fwr", signs, llrs) / 2.0
    consistent = np.ones((llrs.shape[0], 1 << p, llrs.shape[2]), dtype=bool)
    for k in range(t):
        consistent &= inputs[None, :, k, None] == known[:, None, k, :]
    half = []
    for hyp in (0, 1):
        mask = consistent & (inputs[None, :, t, None] == hyp)
        masked = np.where(mask, metric, -np.inf)
        top = masked.max(axis=1)
        if mode == "exact":
            top = top + np.log(np.exp(masked - top[:, None, :]).sum(axis=1))
        half.append(top)
    return np.clip(half[0] - half[1], -LLR_MAX, LLR_MAX)


def sc_decode(bases, channel_llrs, frozen_mask, mode="exact", follow=None):
    """Batched multi-kernel SC decoding in natural order.

    Parameters
    ----------
    bases : sequence of 2 and 3, outermost kernel first.
    channel_llrs : (F, N) array.
    frozen_mask : length-N bools.
    mode : "exact" (log-sum-exp) or "minsum" (max).
    follow : optional (F, N) decisions. When given, these bits, not the
        reference's own, are fed back into the partial sums, so the
        reference tracks another decoder's path and a near-tie cannot
        cascade.

    Returns (decisions, decision_llrs), both (F, N): the reference's own
    hard decision and the LLR it saw for every bit.
    """
    if mode not in ("exact", "minsum"):
        raise ValueError(f"unknown mode {mode!r}")
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    frames, n = llrs.shape
    frozen = np.asarray(frozen_mask, dtype=bool)
    decisions = np.zeros((frames, n), dtype=np.uint8)
    seen = np.zeros((frames, n), dtype=np.float64)

    def node(level, block, offset):
        # block: (F, n_block) LLRs of this sub-code's codeword; returns
        # the sub-codeword re-encoded from the bits fed back.
        if level == len(bases):
            seen[:, offset] = block[:, 0]
            own = np.zeros(frames, dtype=np.uint8) if frozen[offset] else (block[:, 0] < 0).astype(np.uint8)
            decisions[:, offset] = own
            fed = own if follow is None else np.asarray(follow[:, offset], dtype=np.uint8)
            return fed[:, None]
        p = bases[level]
        m = block.shape[1] // p
        outputs = block.reshape(frames, p, m)
        sub = np.zeros((frames, p, m), dtype=np.int64)
        for t in range(p):
            child = kernel_update(p, t, outputs, sub[:, :t, :], mode)
            sub[:, t, :] = node(level + 1, child, offset + t * m)
        return (np.einsum("ftr,tc->fcr", sub, KERNELS[p]) % 2).reshape(frames, p * m)

    node(0, llrs, 0)
    return decisions, seen


def genie_error_rates(bases, channel_llrs, tie=1e-12):
    """Per-bit error rate of a genie-aided pass over the given frames.

    The codeword is all-zero and every earlier bit is fed back as its
    true value 0. A decision LLR below -tie is an error. One within
    +-tie is a tie: a random message bit there is decided wrongly half
    the time, so it counts as half an error.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    zeros = np.zeros(llrs.shape, dtype=np.uint8)
    _, seen = sc_decode(bases, llrs, np.zeros(llrs.shape[1], dtype=bool), "exact", follow=zeros)
    return ((seen < -tie) + 0.5 * (np.abs(seen) <= tie)).mean(axis=0)
