"""Polarization kernels and their LLR update rules.

A kernel of size p is a nonsingular binary p x p matrix T. A kernel block
maps an input bit row-vector u to the output x = u * T over GF(2), which
product_steps forms for encoding and partial sums alike. During SC
decoding the block is consumed one input bit at a time: with the first i
input bits known and LLRs attached to the p outputs, the LLR of input bit
i is obtained by exact marginalization over the remaining p - 1 - i bits,

    l_i = ln sum_{u_i = 0} exp(m(x)) - ln sum_{u_i = 1} exp(m(x)),

where m(x) = sum_m (1 - 2 x_m) L_m / 2 is the log-likelihood metric of the
output word x. Replacing log-sum-exp by max gives the min-sum (max-log)
variant. For the size-2 kernel these reduce to the classic f and g updates.

Every update reads one table per kernel, the metric terms of each whole
input word. From it llr_candidate_steps forms the update of every bit of
R blocks under every known prefix, llr_gather_steps picks each block's
own, and llr_kernel_batch runs both for one bit. zero_prefix_steps
forms only the updates after the all-zero prefix, which the decoder's
all-frozen sub-codes read (zero_prefix_stages), and genie-aided
construction, the decode of the all-frozen code; last_bit_steps only the
last bit's, which is all that the decisions of a REP sub-code read. All of
them bind the word metrics by one core, _metric_steps, and all but the
last the log-sum-exps by _best_steps, so each candidate they share is
formed by the same calls, each sum in one order whatever the number of
blocks.

LLR convention: L = ln(P(bit = 0) / P(bit = 1)); a negative LLR argues for
bit 1. All update outputs are saturated to +-LLR_MAX.
"""

from math import prod

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
# Largest input LLR magnitude: a metric sums p of them halved, so with any
# kernel the package can build it stays finite.
LLR_LIMIT = 1e300
# Passes of more blocks than this exponentiate each run of two once (_best_steps).
WIDE_ROWS = 512

_ONE = np.array(1, dtype=np.uint8)  # 0-d parity mask: cheaper per call than the int 1 or a 1-element array
# The clip ufunc saturates in one call, where np.clip's Python wrapper costs
# more than the work at these sizes; its path is private, which a test pins.
_clip = np._core.umath.clip
# 0-d rails: a Python float costs a conversion per call
_LO, _HI = np.array(-LLR_MAX), np.array(LLR_MAX)
_UNIT = np.array(1.0)  # the exp(0) term of a run of two (_best_steps)
_T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
_T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)


def _whole(value, what, least=None, error=ValueError) -> int:
    """int(value) if value is a whole number of at least least (1.0, np.int8(3)
    and True count; 2.5, inf, nan, "3", None and 1j do not), else raise error."""
    try:
        if int(value) == value and (least is None or value >= least):
            return int(value)
    except (OverflowError, TypeError, ValueError):
        pass
    raise error(f"{what} = {value!r} is not an integer" + ("" if least is None else f" of at least {least}"))


def _all_bits(x):
    """Whether every entry of x is 0 or 1: np.isin(x, (0, 1)).all() by the == tests it makes."""
    return ((x == 0) | (x == 1)).all()


def _enumerate(n):
    """All 2^n bit rows of length n, the first bit most significant."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


class KernelMatrix:
    """A validated polarization kernel.

    Parameters
    ----------
    rows : array_like
        Square binary matrix with entries in {0, 1}, nonsingular over
        GF(2), size at least 2. Stored row-major; ``rows[j]`` is the
        codeword contributed by input bit j. T is nonsingular exactly
        when u -> u T is one-to-one, so it is checked as 2^p distinct
        codewords (SingularKernel otherwise).

    Attributes
    ----------
    p : int
        Kernel size.
    rows : ndarray
        The kernel matrix as read-only uint8.
    codewords : ndarray
        Read-only uint8 (2^p, p): row u is the codeword u T of the input
        word u, read as a binary number with the first bit most significant.
    key : tuple
        Hashable identity of the kernel contents, (p, bytes of rows).
    """

    def __init__(self, rows):
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise NotSquare(f"kernel must be square, got shape {rows.shape}")
        p = rows.shape[0]
        if p < 2:
            raise UnsupportedKernelSize("kernel size must be at least 2")
        if not _all_bits(rows):
            raise SingularKernel("kernel entries must be 0 or 1")
        rows = rows.astype(np.uint8)
        codewords = _enumerate(p) @ rows % 2
        if len({word.tobytes() for word in codewords}) != 1 << p:
            raise SingularKernel(f"kernel of size {p} is singular over GF(2)")
        self.p = p
        self.rows = rows
        self.rows.flags.writeable = False
        self.codewords = codewords
        self.codewords.flags.writeable = False
        self.key = (p, rows.tobytes())
        # row u: the metric terms (1 - 2 x_m) / 2 of the codeword x of u
        self._word_metrics = (1.0 - 2.0 * self.codewords) / 2.0

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


def product_steps(kernel: KernelMatrix, words, out):
    """Steps writing uint8 ``words @ kernel.rows`` mod 2 into ``out`` (maybe strided), kernel axis last.

    They are a uint8 matmul with the kernel and an and with a 0-d 1, on a 1-D view of out
    wherever one exists, so that numpy ands without the buffered iterator it takes for a
    strided multi-axis output or a 1-element mask. Encoding, every partial-sum push and the
    decoder's tail blocks use them."""
    try:
        flat = np.reshape(out, -1, copy=False)
    except (TypeError, ValueError):  # no such view, or numpy < 2.1
        flat = out
    return [(np.matmul, (words, kernel.rows, out)), (np.bitwise_and, (flat, _ONE, flat))]


MODES = ("exact", "minsum")


def check_mode(mode):
    """Raise ValueError unless mode is one of MODES."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def as_llrs(llrs, what):
    """llrs as a float64 array. Raises ValueError if complex, whose imaginary
    part the cast would drop, and NonFiniteInput unless every |LLR| is at
    most LLR_LIMIT (so NaN fails)."""
    llrs = np.asarray(llrs)
    if llrs.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got {llrs.dtype}")
    llrs = llrs.astype(np.float64, copy=False)
    if not (np.abs(llrs) <= LLR_LIMIT).all():
        raise NonFiniteInput(f"{what} must be finite and at most {LLR_LIMIT:g} in magnitude")
    return llrs


class WorkArrays(dict):
    """One grow-only work array per role for every pass bound with it, as bound
    steps run one at a time: work(role, shape, dtype, start) is a view of the role's
    array from entry start, first replaced by a larger one if too small. grown counts
    the replacements, after which steps bound before keep the arrays replaced alive."""

    grown = 0

    def __call__(self, role, shape, dtype, start=0):
        end = start + prod(shape)
        if role not in self or self[role].size < end:
            self.grown += role in self
            self[role] = np.empty(end, dtype)
        return self[role][start:end].reshape(shape)


def llr_candidate_steps(kernel: KernelMatrix, mode, groups, table, work):
    """The update of every input bit under every known prefix, as steps.

    ``groups`` is a C-contiguous (R, p) float64 array of output LLRs per
    block and ``table`` a C-contiguous (2 (2^p - 1), R) float64 array.
    The steps write into row 2 (2^t - 1 + v) of ``table`` the update of
    bit t of each block after the known prefix v (first bit most
    significant); odd rows are work space, and other work arrays come
    from the WorkArrays ``work``. _best_steps forms the log-sum-exp (or
    in minsum mode the best metric) of all 2^(t+1) runs of each bit t.
    """
    steps = _best_steps(kernel, mode, groups, table, [2 << t for t in range(kernel.p)], work)
    # The difference goes in place into the even rows, since numpy
    # buffers small operands whose strides differ from the output's.
    llrs = table[0::2]
    return steps + [(np.subtract, (llrs, table[1::2], llrs)), (_clip, (table, _LO, _HI, table))]


def _bit(t):
    """The table rows of bit t, one per run: 2 (2^t - 1 + v) + h for prefix v and hypothesis h."""
    return slice(2 * ((1 << t) - 1), 2 * ((2 << t) - 1))


def _metric_steps(words, columns, out, work):
    """Steps writing the metrics words @ columns into ``out``: np.dot of at
    most 3 columns each, added left to right into the first, the later ones
    in the work array "terms"."""
    steps = [(np.dot, (words[:, :3], columns[:3], out))]
    if len(columns) > 3:
        terms = work("terms", out.shape, np.float64)
        for m in range(3, len(columns), 3):
            steps += [(np.dot, (words[:, m : m + 3], columns[m : m + 3], terms)), (np.add, (out, terms, out))]
    return steps


def _best_steps(kernel: KernelMatrix, mode, groups, table, runs, work):
    """Steps writing into ``table``, laid out as llr_candidate_steps' (bit t
    owns rows _bit(t)), the best metric of each run of the R blocks of
    ``groups``, for every bit from the first with runs[t] > 0; in exact
    mode the first runs[t] rows of each bit t < p - 1 then hold the
    log-sum-exp of their runs. Work arrays "metrics" and "total", and for
    p >= 4 "terms", come from the WorkArrays ``work``.

    Products with the word table (np.dot, BLAS) of at most 3 columns each,
    added left to right, form the metric of each word u = (v, h, c),
    hypothesis h and completion c, once, into the rows of bit p - 1, which
    has one completion per hypothesis; the words of one (v, h) are a run
    of 2^(p-1-t) rows. A run of bit t is two runs of bit t + 1, so each of
    its best metrics is one fmax of two rows of bit t + 1. A run of 2 takes
    its log-sum-exp by one add of its two halves, the first plus the
    second, a run of 4 by a reduction along its axis, which numpy adds in
    sequence, and a longer run by adds of its second half into its first
    until one pair is left. So no sum depends on R or the layout, and each
    update has the same bits for any number of blocks: for p <= 3, the
    bits of the block-major rule.

    In a pass of more than WIDE_ROWS blocks a run of 2 is exponentiated
    once, not twice: with b = fmax(m0, m1) one of exp(m0 - b), exp(m1 - b)
    is exp(0) = 1.0 exactly and the other is exp(fmin(m0, m1) - b), from
    the same operands, and a sum of two terms is the same in either order,
    so exp(fmin - b) + 1.0 has the bits of the pair add. One fmin and a
    subtract of n rows then replace a broadcast subtract of 2n, and the
    exp and the room in "metrics" halve for bit p - 2. Timed alone, with
    the two forms interleaved, a candidate or zero-prefix pass of T2 or T3
    ran 1.03-1.06x faster this way at 16 blocks and 1.02-1.35x faster from
    512 on, so there is no crossover in time. The threshold keeps the
    one call more off every single-frame pass of the paper codes (at most
    486 blocks), whose call counts tests/test_decoder.py pins (PAPER_STEPS:
    8.75 calls per bit at N = 384 against a bound of 8.8). On the
    benchmark's construct-mc workload this form raised construction from
    59.4k to 66.6k frames/s (1.12x, medians of 10 pairs, BENCH_36.json).

    These calls (np.dot for the word metrics, fmax and add for runs of
    two, 0-d saturation rails), with one take to ingest the channel LLRs,
    raised single-frame decoding on the benchmark's decode-paper workload
    from 178k to 203k bits/s (1.14x, medians of 10 pairs, BENCH_20.json).
    """
    p, rows = kernel.p, len(groups)
    best = [table[_bit(t)] for t in range(p)]
    steps = _metric_steps(kernel._word_metrics, groups.T, best[-1], work)
    low = next(t for t, n in enumerate(runs) if n)
    for t in range(p - 2, low - 1, -1):
        pairs = best[t + 1].reshape(2 << t, 2, rows)
        # fmax, not maximum: NaN never reaches a pass (as_llrs), and
        # maximum warns about a positional out
        steps.append((np.fmax, (pairs[:, 0], pairs[:, 1], best[t])))
    lse = [(t, n, 1 << (p - 1 - t)) for t, n in enumerate(runs[:-1]) if n]
    if mode != "exact" or not lse:
        return steps
    # log-sum-exp over each run, shifted by its best metric; the runs of
    # all bits lie one after another in "metrics" and in "total"
    wide = rows > WIDE_ROWS
    kept = [n * (1 if wide and size == 2 else size) for _, n, size in lse]
    metrics = work("metrics", (sum(kept), rows), np.float64)
    total = work("total", (sum(n for _, n, _ in lse), rows), np.float64)
    sums, heads, word, head = [], [], 0, 0
    for (t, n, size), count in zip(lse, kept):
        out, part = total[head : head + n], metrics[word : word + count].reshape(n, -1, rows)
        if count == n:  # one exp per run of two
            pairs, part = best[-1][: 2 * n].reshape(n, 2, rows), part[:, 0]
            steps += [(np.fmin, (pairs[:, 0], pairs[:, 1], part)), (np.subtract, (part, best[t][:n], part))]
            sums.append((np.add, (part, _UNIT, out)))
        else:
            steps.append((np.subtract, (best[-1][: n * size].reshape(n, size, rows), best[t][:n, None], part)))
            if size == 4:
                sums.append((np.add.reduce, (part, 1, None, out)))
            else:
                half = size // 2
                while half > 1:  # adds in an order fixed for every R
                    sums.append((np.add, (part[:, :half], part[:, half : 2 * half], part[:, :half])))
                    half //= 2
                sums.append((np.add, (part[:, 0], part[:, 1], out)))
        start = _bit(t).start
        if heads and heads[-1][1] == start:  # one add over adjacent rows
            heads[-1][1] += n
        else:
            heads.append([start, start + n, head])
        word, head = word + count, head + n
    steps += [(np.exp, (metrics, metrics))] + sums + [(np.log, (total, total))]
    return steps + [(np.add, (table[a:b], total[o : o + b - a], table[a:b])) for a, b, o in heads]


def zero_prefix_steps(kernel: KernelMatrix, mode, groups, out, work, start=0):
    """The update of every input bit after the all-zero prefix, as steps.

    ``groups`` is a C-contiguous (R, p) float64 array of output LLRs per
    block and ``out`` a C-contiguous (p, R) one, which may be the same
    memory: only the first steps, the metric products, read groups, and
    only the last steps write out. The steps write into out[t] the update
    of bit t of each block whose bits 0 .. t-1 are all known to be 0: row
    2 (2^t - 1) of what llr_candidate_steps leaves in its table in the
    same mode. Work arrays come from the WorkArrays ``work`` under
    llr_candidate_steps' roles: "candidates", a table of its layout from
    entry ``start``, and those of _best_steps.

    _best_steps forms the log-sum-exp of only the two runs of prefix 0 of
    each bit t, words 0 .. 2^(p-t) - 1, in place of all 2^(t+1) runs: p
    candidates per block in place of 2^p - 1.
    """
    p, rows = kernel.p, len(groups)
    table = work("candidates", (2 * ((1 << p) - 1), rows), np.float64, start)
    steps = _best_steps(kernel, mode, groups, table, [2] * p, work)
    # bit t's two hypotheses are rows 2 (2^t - 1) and 2 (2^t - 1) + 1
    k = min(p, 2)
    pairs = table[: 2 * k].reshape(k, 2, rows)
    steps.append((np.subtract, (pairs[:, 0], pairs[:, 1], out[:k])))
    steps += [(np.subtract, (table[_bit(t)][0], table[_bit(t)][1], out[t])) for t in range(2, p)]
    return steps + [(_clip, (out, _LO, _HI, out))]


def zero_prefix_stages(kernels, mode, level, work, start):
    """The zero-prefix pass of each kernel in turn over one C-contiguous
    level array, in place, as steps: F vectors of M entries, (F, M), become
    (b_1, F, M / p_1), then (b_2, b_1, F, M / (p_1 p_2)) and so on, each
    entry the update of bit b_j after the all-zero prefix. Work arrays
    come from ``work``, the candidates from entry ``start``."""
    return [step for k in kernels for step in
            zero_prefix_steps(k, mode, level.reshape(-1, k.p), level.reshape(k.p, -1), work, start)]


def last_bit_steps(kernels, level, out, work, start):
    """The update of the last bit of each of F vectors after the all-zero
    prefix of all its other bits, as steps: out[f] gets, with the same bits,
    the entry that zero_prefix_stages over the same kernels leaves for the
    last bit of vector f.

    ``level`` is a C-contiguous (F, p_1 ... p_n) float64 array and ``out``
    an (F,) one. Bit p - 1 of a block after the all-zero prefix is the
    difference of the metrics of its words 0...00 and 0...01, clipped, and
    no fmax or log-sum-exp is on that path. So each kernel in turn takes the
    products of those two word rows (_metric_steps, as _best_steps does)
    in place of all 2^p, one subtract and one clip, over only the entries
    of digit p - 1 that the kernel before left, each time 1 / p as many, in
    place in the last 1 / p of them, and the last kernel into out. The
    products take their room from the work array "candidates" from entry
    start. Only the last two steps, the last kernel's subtract and clip,
    write out.
    """
    steps = []
    for i, k in enumerate(kernels, 1):
        groups = level.reshape(-1, k.p)
        words = work("candidates", (2, len(groups)), np.float64, start)
        steps += _metric_steps(k._word_metrics[:2], groups.T, words, work)
        level = level.reshape(k.p, -1)[-1] if i < len(kernels) else out
        steps += [(np.subtract, (words[0], words[1], level)), (_clip, (level, _LO, _HI, level))]
    return steps


def llr_gather_steps(i, table, known, out, index, offsets):
    """The update of input bit i of each block, read from its candidates.

    ``table`` is what llr_candidate_steps fills, ``out`` an (R,) float64
    array and ``known`` an integer array whose first i columns hold the
    known input bits of the R blocks. ``index`` is an intp work array and
    ``offsets`` holds 0, 1, 2, ..., both at least R long. The steps copy
    into ``out[r]`` the candidate of block r under its prefix v: flat
    entry 2 R v + r of the table rows of bit i. With no known bits they
    are one copy, else a matmul into the index (a multiply with one known
    bit), an add of the block offsets when R > 1 and a take.
    """
    rows = len(out)
    choices = table[_bit(i)].reshape(-1)
    if not i:
        return [(np.copyto, (out, choices[:rows]))]
    index = index[:rows]
    weights = (2 * rows) << np.arange(i - 1, -1, -1, dtype=np.int64)
    if i == 1:  # a multiply by a 0-d weight costs half a one-term matmul
        steps = [(np.multiply, (known[:, 0], weights.reshape(()), index))]
    else:
        steps = [(np.matmul, (known[:, :i], weights, index))]
    if rows > 1:  # a single block has offset 0
        steps.append((np.add, (index, offsets[:rows], index)))
    # "clip" spares numpy the copy of `out` that "raise" makes
    return steps + [(choices.take, (index, None, out, "clip"))]


def llr_kernel_batch(kernel: KernelMatrix, i: int, llr_rows, ps_rows, mode="exact"):
    """Vectorized kernel LLR update for many blocks at once.

    ``llr_rows`` has shape (..., p): per block, the LLRs attached to the p
    kernel outputs. ``ps_rows`` has shape (..., i): per block, the already
    known input bits 0 .. i-1. Returns the LLRs of input bit i, shape
    (...), saturated to +-LLR_MAX, with input bits i+1 .. p-1
    marginalized out, by the candidate pass and gather the decoder runs,
    limited to bit i: the best metrics of bits i .. p-1, then the
    log-sum-exp and difference of bit i's 2^(i+1) runs alone. Blocks are
    independent: each one gets exactly the update of a one-block call,
    whatever the number of blocks in the call.

    Raises IndexOutOfRange unless i is a whole number in [0, p) (1.0
    counts as 1), NonFiniteInput for LLRs that are NaN or above 1e300 in
    magnitude, LengthMismatch for other shapes and ValueError for
    complex LLRs and for known bits other than 0 and 1.
    """
    check_mode(mode)
    i = _whole(i, "bit index", 0, IndexOutOfRange)
    if i >= kernel.p:
        raise IndexOutOfRange(f"bit index {i} outside [0, {kernel.p})")
    llr_rows = as_llrs(llr_rows, "kernel output LLRs")
    if llr_rows.shape[-1:] != (kernel.p,):
        raise LengthMismatch(f"expected {kernel.p} output LLRs per block, got shape {llr_rows.shape}")
    known = np.asarray(ps_rows)
    if known.shape != llr_rows.shape[:-1] + (i,):
        raise LengthMismatch(f"expected {i} known input bits per block, got shape {known.shape}")
    if not _all_bits(known):
        raise ValueError("known input bits must be 0 or 1")
    groups = np.ascontiguousarray(llr_rows.reshape(-1, kernel.p))
    rows = len(groups)
    table = np.empty((2 * ((1 << kernel.p) - 1), rows))
    out = np.empty(rows)
    llrs = table[_bit(i)][0::2]
    steps = _best_steps(kernel, mode, groups, table, [2 << i if t == i else 0 for t in range(kernel.p)], WorkArrays())
    steps += [(np.subtract, (llrs, table[_bit(i)][1::2], llrs)), (_clip, (llrs, _LO, _HI, llrs))]
    steps += llr_gather_steps(i, table, known.astype(np.uint8).reshape(rows, i), out,
                              np.empty(rows, np.intp), np.arange(rows))
    for fn, args in steps:
        fn(*args)
    return out.reshape(llr_rows.shape[:-1])
