"""Polarization kernels and their LLR update rules.

A kernel of size p is a nonsingular binary p x p matrix T. A kernel block
maps an input bit row-vector u to the output x = u * T over GF(2). During
successive-cancellation decoding the block is consumed one input bit at a
time: with the first i input bits known and LLRs attached to the p outputs,
the LLR of input bit i is obtained by exact marginalization over the
remaining p - 1 - i input bits,

    l_i = ln sum_{u_i = 0} exp(m(x)) - ln sum_{u_i = 1} exp(m(x)),

where m(x) = sum_m (1 - 2 x_m) L_m / 2 is the log-likelihood metric of the
output word x. Replacing log-sum-exp by max gives the min-sum (max-log)
variant. For the size-2 kernel these reduce to the classic f and g updates.

LLR convention: L = ln(P(bit = 0) / P(bit = 1)); a negative LLR argues for
bit 1. All update outputs are saturated to +-LLR_MAX.
"""

from functools import partial

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteInput,
    NotSquare,
    SingularKernel,
    UnsupportedKernelSize,
)

# Saturation rail for every LLR produced by an update rule.
LLR_MAX = 40.0

_T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
_T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)


def _is_whole(value) -> bool:
    """True if value equals an integer; False for 2.5, inf, nan and "1"."""
    try:
        return int(value) == value
    except (OverflowError, TypeError, ValueError):
        return False


def _enumerate(n):
    """All 2^n bit rows of length n, the first bit most significant."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def _gf2_rank(matrix):
    a = matrix.astype(np.uint8).copy()
    n_rows, n_cols = a.shape
    rank = 0
    for c in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, c].astype(bool)
        mask[rank] = False
        a[mask] ^= a[rank]
        rank += 1
    return rank


class KernelMatrix:
    """A validated polarization kernel.

    Parameters
    ----------
    rows : array_like
        Square binary matrix with entries in {0, 1}, nonsingular over
        GF(2), size at least 2. Stored row-major; ``rows[j]`` is the
        codeword contributed by input bit j.

    Attributes
    ----------
    p : int
        Kernel size.
    rows : ndarray
        The kernel matrix as read-only uint8.
    """

    def __init__(self, rows):
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise NotSquare(f"kernel must be square, got shape {rows.shape}")
        p = rows.shape[0]
        if p < 2:
            raise UnsupportedKernelSize("kernel size must be at least 2")
        if not np.isin(rows, (0, 1)).all():
            raise SingularKernel("kernel entries must be 0 or 1")
        rows = rows.astype(np.uint8)
        if _gf2_rank(rows) != p:
            raise SingularKernel(f"kernel of size {p} is singular over GF(2)")
        self.p = p
        self.rows = rows
        self.rows.flags.writeable = False
        self._build_tables()

    def _build_tables(self):
        # Known input bits 0 .. i-1 fix a partial codeword c, and output m
        # of the block is c_m XOR y_m, where y is the codeword of the
        # unknown inputs i .. p-1. Since (1 - 2 x_m) = (1 - 2 c_m)(1 - 2 y_m),
        # flipping each output LLR by the sign of c leaves a marginalization
        # over the unknown inputs alone, whose metric table does not depend
        # on the known bits. Enumerations put the first bit most significant,
        # so completions with input i = 0 form the first half of a table.
        p = self.p
        self._prefix_weights = []  # [i]: value of a known prefix of length i
        self._prefix_signs = []  # [i]: (2^i, p) sign of c per prefix value
        self._rest_metrics = []  # [i]: (2^(p-i), p) metric row per completion, 1/2 included
        for i in range(p):
            self._prefix_weights.append(1 << np.arange(i - 1, -1, -1, dtype=np.int64))
            prefix = _enumerate(i) @ self.rows[:i] % 2
            self._prefix_signs.append(1.0 - 2.0 * prefix)
            rest = _enumerate(p - i) @ self.rows[i:] % 2
            self._rest_metrics.append((1.0 - 2.0 * rest) / 2.0)

    @property
    def key(self):
        """Hashable identity of the kernel contents."""
        return (self.p, self.rows.tobytes())

    def __repr__(self):
        return f"KernelMatrix(p={self.p})"


_BUILTIN = {}


def builtin_kernel(p: int) -> KernelMatrix:
    """Return the built-in kernel of size p (2 or 3).

    Raises UnsupportedKernelSize for any other size.
    """
    if p not in (2, 3):
        raise UnsupportedKernelSize(f"no built-in kernel of size {p}")
    if p not in _BUILTIN:
        _BUILTIN[p] = KernelMatrix(_T2 if p == 2 else _T3)
    return _BUILTIN[p]


MODES = ("exact", "minsum")


def check_mode(mode):
    """Raise ValueError unless mode is one of MODES."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def llr_update_steps(kernel: KernelMatrix, i: int, mode, groups, known, out, scratch):
    """The update of input bit i as a list of in-place (function, args).

    ``groups`` is a C-contiguous (R, p) float64 array of output LLRs per
    block, ``known`` an (R, i) integer array of known input bits and
    ``out`` an (R,) float64 array. Calling the steps in order writes what
    llr_kernel_batch returns into ``out``, using work arrays from
    ``scratch(role, shape, dtype)`` and allocating nothing else. The
    calls and their operand layouts do not depend on where the arrays
    live, so every bound copy of the steps gives the same bits.

    The metric work arrays are hypothesis-major, (2, half, R): the R
    blocks lie innermost, so each reduction over the completions of a
    hypothesis is a few whole-row operations, not a walk over R short
    rows. For a kernel of size p <= 3 every metric is a sum of at most 3
    exact terms and every reduction has at most 4, which numpy sums in
    sequence in either layout, so the bits are those of the block-major
    (R, 2, half) layout. For p >= 4 the summation order can differ, and
    results agree with it only to rounding.
    """
    p, rows = kernel.p, len(groups)
    table = kernel._rest_metrics[i]
    half = len(table) >> 1
    steps = []
    if i:
        prefix = scratch("prefix", (rows,), np.int64)
        flip = scratch("flip", (rows, p), np.float64)
        flipped = scratch("flipped", (rows, p), np.float64)
        steps += [
            (np.matmul, (known, kernel._prefix_weights[i], prefix)),
            (kernel._prefix_signs[i].take, (prefix, 0, flip)),
            (np.multiply, (groups, flip, flipped)),
        ]
        groups = flipped
    # One 2-D product for all blocks: a stacked product would make one
    # BLAS call per leading index.
    metrics = scratch("metrics", (2 * half, rows), np.float64)
    steps.append((np.matmul, (table, groups.T, metrics)))
    best = metrics  # one completion per hypothesis: its metric is the best
    if half > 1:
        metrics = metrics.reshape(2, half, rows)
        best = scratch("best", (2, rows), np.float64)
        steps.append((np.maximum.reduce, (metrics, 1, None, best)))
        if mode == "exact":
            # log-sum-exp over each half, shifted by its maximum
            total = scratch("total", (2, rows), np.float64)
            steps += [
                (np.subtract, (metrics, best[:, None], metrics)),
                (np.exp, (metrics, metrics)),
                (np.add.reduce, (metrics, 1, None, total)),
                (np.log, (total, total)),
                (np.add, (best, total, best)),
            ]
    # minimum and maximum take `out` only by keyword
    return steps + [
        (np.subtract, (best[0], best[1], out)),
        (partial(np.minimum, out=out), (out, LLR_MAX)),
        (partial(np.maximum, out=out), (out, -LLR_MAX)),
    ]


def llr_candidate_steps(kernel: KernelMatrix, mode, groups, out, scratch):
    """The update of every input bit under every known prefix, as steps.

    ``groups`` is a C-contiguous (R, p) float64 array of output LLRs per
    block and ``out`` a (2^p - 1, R) float64 array. Calling the steps in
    order writes into row 2^t - 1 + v of ``out`` what llr_kernel_batch
    returns for bit t of each block when its known prefix, read as a
    binary number with the first bit most significant, is v. Work arrays
    come from ``scratch(role, shape, dtype)``.

    Every metric of every update is the metric of one whole input word
    u: with prefix v, hypothesis h and completion c, u = (v, h, c). A
    rest-table entry times the sign of the prefix is the entry of u in
    the table of bit 0, so one product with that table forms each metric
    once, from the same exact terms in the same order. Ordered by u, the
    words of one (v, h) are a run of 2^(p-1-t) rows, so each update
    reduces runs of one array. For a kernel of size p <= 3 each row of
    ``out`` holds the bits of the matching update; for p >= 4 they agree
    to rounding.
    """
    p, rows = kernel.p, len(groups)
    # best[2c + h]: the best metric of hypothesis h of candidate c; bit t
    # owns rows bit[t]. The last bit has one completion per hypothesis,
    # so its rows are the metrics of the 2^p words, and a run of bit t
    # is two runs of bit t + 1.
    bit = [slice(2 * ((1 << t) - 1), 2 * ((2 << t) - 1)) for t in range(p)]
    done = bit[-1].start  # the hypotheses of bits 0 .. p-2
    best = scratch("best", (bit[-1].stop, rows), np.float64)
    words = best[bit[-1]]
    steps = [(np.matmul, (kernel._rest_metrics[0], groups.T, words))]
    for t in range(p - 2, -1, -1):
        steps.append((np.maximum.reduce, (best[bit[t + 1]].reshape(2 << t, 2, rows), 1, None, best[bit[t]])))
    if mode == "exact":
        # log-sum-exp over each run, shifted by its best metric; numpy
        # adds along the middle axis in sequence
        shifted = scratch("metrics", (p - 1, 1 << p, rows), np.float64)
        total = scratch("total", (done, rows), np.float64)
        sums = []
        for t in range(p - 1):
            runs = words.reshape(2 << t, 1 << (p - 1 - t), rows)
            part = shifted[t].reshape(runs.shape)
            steps.append((np.subtract, (runs, best[bit[t], None], part)))
            sums.append((np.add.reduce, (part, 1, None, total[bit[t]])))
        steps.append((np.exp, (shifted, shifted)))
        steps += sums + [
            (np.log, (total, total)),
            (np.add, (best[:done], total, best[:done])),
        ]
    # minimum and maximum take `out` only by keyword
    return steps + [
        (np.subtract, (best[0::2], best[1::2], out)),
        (partial(np.minimum, out=out), (out, LLR_MAX)),
        (partial(np.maximum, out=out), (out, -LLR_MAX)),
    ]


def _fresh(role, shape, dtype):
    return np.empty(shape, dtype)


def llr_kernel_batch(kernel: KernelMatrix, i: int, llr_rows, ps_rows, mode="exact"):
    """Vectorized kernel LLR update for many blocks at once.

    ``llr_rows`` has shape (..., p): per block, the LLRs attached to the p
    kernel outputs. ``ps_rows`` has shape (..., i): per block, the already
    known input bits 0 .. i-1. Returns the LLRs of input bit i, shape
    (...), saturated to +-LLR_MAX, with input bits i+1 .. p-1
    marginalized out. Blocks are independent: each one gets exactly the
    update of a one-block call, whatever the number of blocks in the call.

    Raises IndexOutOfRange unless i is a whole number in [0, p) (1.0
    counts as 1), LengthMismatch for other shapes, NonFiniteInput for
    NaN or infinite LLRs and ValueError for known bits other than 0 and 1.
    """
    check_mode(mode)
    if not (_is_whole(i) and 0 <= i < kernel.p):
        raise IndexOutOfRange(f"bit index {i!r} is not an integer in [0, {kernel.p})")
    i = int(i)
    llr_rows = np.asarray(llr_rows, dtype=np.float64)
    if llr_rows.shape[-1:] != (kernel.p,):
        raise LengthMismatch(f"expected {kernel.p} output LLRs per block, got shape {llr_rows.shape}")
    if not np.isfinite(llr_rows).all():
        raise NonFiniteInput("kernel output LLRs must be finite")
    known = np.asarray(ps_rows)
    if known.shape != llr_rows.shape[:-1] + (i,):
        raise LengthMismatch(f"expected {i} known input bits per block, got shape {known.shape}")
    if not np.isin(known, (0, 1)).all():
        raise ValueError("known input bits must be 0 or 1")
    groups = np.ascontiguousarray(llr_rows.reshape(-1, kernel.p))
    known = known.astype(np.uint8).reshape(len(groups), i) if i else None
    out = np.empty(len(groups))
    for fn, args in llr_update_steps(kernel, i, mode, groups, known, out, _fresh):
        fn(*args)
    return out.reshape(llr_rows.shape[:-1])
