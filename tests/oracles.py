"""Brute-force references that the tests check the package against.

They enumerate every codeword or every input vector, so they only run on
small codes: the generator is materialized for N <= 4096, the ML decoder
enumerates 2^K messages for K <= 16, and the SC oracle enumerates all
2^N inputs for N <= 16. ``row_major_kernel_update`` is the kernel LLR
update in its block-major layout, kept to pin the bits of the package's
hypothesis-major one. ``schedule_ops`` lists the SC walk as the flat
op list of the paper's schedule, which the tests' reference executor
runs and whose op-by-op counts pin ``DecodeStats``. The scalar digit
rules below define, one index at a time, what ``CodeSpec.digit_table``
and ``CodeSpec.start_stages`` compute for all indices at once, and so
which ops each bit of the schedule runs.
"""

from math import prod

import numpy as np

from mkpolar import CodeSpec, IndexOutOfRange, LengthMismatch, NonFiniteInput

NAIVE_GENERATOR_LIMIT = 4096
ML_ORACLE_MAX_K = 16
SC_ORACLE_MAX_N = 16

REFRESH, DECIDE, PROPAGATE = range(3)


class TooLarge(Exception):
    """The instance exceeds the size bound of a brute-force oracle."""


def mixed_radix_digits(i, bases):
    """Digits (b_1, ..., b_s) of index i, most significant first."""
    digits = []
    for p in reversed(bases):
        i, d = divmod(i, p)
        digits.append(d)
    return tuple(reversed(digits))


def digits_to_index(digits, bases):
    """Inverse of mixed_radix_digits."""
    i = 0
    for d, p in zip(digits, bases):
        i = i * p + d
    return i


def start_stage(i, bases):
    """First stage refreshed for bit i: the 1-based position of the
    rightmost nonzero digit of i, and 1 for i = 0."""
    digits = mixed_radix_digits(i, bases)
    for z in range(len(digits), 0, -1):
        if digits[z - 1] != 0:
            return z
    return 1


def trailing_max_run(i, bases):
    """Number of trailing digits of i that sit at their maximum p_j - 1:
    how many partial-sum matrices complete after bit i."""
    run = 0
    for d, p in zip(reversed(mixed_radix_digits(i, bases)), reversed(bases)):
        if d != p - 1:
            break
        run += 1
    return run


def schedule_ops(code: CodeSpec):
    """The SC schedule of the code's kernel sequence as a flat op list.

    Each op is (kind, a, b, kernel), in execution order: (REFRESH, j, b_j,
    T_j), (DECIDE, i, column or -1, None) and (PROPAGATE, j, column, T_j).

    - REFRESH (j, b): stage j recomputes its whole vector in place. Entry k
      is the kernel update of input bit b given the contiguous group
      k*p_j .. (k+1)*p_j - 1 of the previous stage and the known sub-block
      bits in columns 0 .. b - 1 of its partial-sum matrix. Bit i with
      digits (b_1, ..., b_s) refreshes stages z .. s, where z is the
      position of its rightmost nonzero digit (1 for i = 0); stages below z
      still hold valid values from earlier bits.
    - DECIDE (i, c): read the decision LLR of bit i, the single stage-s
      LLR. Frozen bits decide 0, otherwise a negative LLR decides 1 (tie
      decides 0). Unless i is the last bit, store the decision in column
      c = b_s of the stage-s matrix.
    - PROPAGATE (j, c): push the completed stage-j matrix through its
      kernel. Row k of stage j maps to rows k*p_j .. k*p_j + p_j - 1 of
      stage j-1, in column c = b_{j-1}. After bit i this happens for each
      stage j of the trailing run of digits b_j = p_j - 1, from stage s
      outwards. Nothing propagates after the last bit, which is why the
      stage-1 matrix never needs its final column.

    The ops are built from the package's ``digit_table`` and
    ``start_stages``, so a check of each bit's ops against the scalar
    rules above checks those tables.
    """
    bases, kernels, s, n = code.bases, code.kernels, code.s, code.N
    starts = code.start_stages.tolist()
    ops = []
    for i, d in enumerate(code.digit_table.tolist()):
        ops.extend((REFRESH, j, d[j - 1], kernels[j - 1]) for j in range(starts[i], s + 1))
        if i == n - 1:
            ops.append((DECIDE, i, -1, None))
        else:
            ops.append((DECIDE, i, d[s - 1], None))
            j = s
            while j >= 2 and d[j - 1] == bases[j - 1] - 1:
                ops.append((PROPAGATE, j, d[j - 2], kernels[j - 1]))
                j -= 1
    return ops


def _checked_llrs(code, channel_llrs):
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.shape != (code.N,):
        raise LengthMismatch(f"expected {code.N} LLRs, got shape {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise NonFiniteInput("channel LLRs must be finite")
    return llrs


def naive_generator(kernels):
    """Materialize G_N as an explicit Kronecker product (N <= 4096)."""
    kerns = CodeSpec(kernels).kernels
    n = prod(k.p for k in kerns)
    if n > NAIVE_GENERATOR_LIMIT:
        raise TooLarge(f"N = {n} exceeds the {NAIVE_GENERATOR_LIMIT} limit")
    g = np.array([[1]], dtype=np.uint8)
    for k in kerns:
        g = np.kron(g, k.rows) % 2
    return g


def ml_oracle_decode(code: CodeSpec, channel_llrs):
    """Exact maximum-likelihood decoding by enumerating all 2^K messages.

    Returns the full input vector u maximizing the codeword correlation
    sum_j (1 - 2 x_j) L_j; ties go to the lexicographically smallest
    message. Guarded to K <= 16.
    """
    if code.K > ML_ORACLE_MAX_K:
        raise TooLarge(f"K = {code.K} exceeds the {ML_ORACLE_MAX_K} limit")
    llrs = _checked_llrs(code, channel_llrs)
    k = code.K
    messages = np.arange(1 << k, dtype=np.int64)
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    bits = ((messages[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    u_all = np.zeros((1 << k, code.N), dtype=np.uint8)
    if k:
        u_all[:, np.asarray(code.info, dtype=np.int64)] = bits
    x_all = u_all @ naive_generator(code.kernels) % 2
    scores = (1.0 - 2.0 * x_all.astype(np.float64)) @ llrs
    # argmax takes the first maximum; message enumeration is MSB-first,
    # so that is the lexicographically smallest tied message.
    return u_all[int(np.argmax(scores))].copy()


_METRIC_TABLES = {}


def _metric_table(code: CodeSpec):
    key = tuple(k.key for k in code.kernels)
    table = _METRIC_TABLES.get(key)
    if table is None:
        n = code.N
        idx = np.arange(1 << n, dtype=np.int64)
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        u_all = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        x_all = u_all @ naive_generator(code.kernels) % 2
        table = (1 - 2 * x_all.astype(np.int8)).astype(np.int8)
        _METRIC_TABLES[key] = table
    return table


def exact_sc_oracle_llr(code: CodeSpec, channel_llrs, i: int, prefix) -> float:
    """Whole-code SC decision LLR by exhaustive marginalization (N <= 16).

    Computes ln sum exp over all length-N inputs extending ``prefix`` with
    u_i = 0 versus u_i = 1, with the metric sum_j (1 - 2 x_j) L_j / 2.
    Later bits are marginalized over all completions regardless of the
    frozen set, matching the decoder's per-kernel semantics.
    """
    n = code.N
    if n > SC_ORACLE_MAX_N:
        raise TooLarge(f"N = {n} exceeds the {SC_ORACLE_MAX_N} limit")
    llrs = _checked_llrs(code, channel_llrs)
    if not 0 <= i < n:
        raise IndexOutOfRange(f"bit index {i} outside [0, {n})")
    prefix = np.asarray(prefix, dtype=np.uint8).reshape(-1)
    if prefix.shape != (i,):
        raise LengthMismatch(f"expected prefix of length {i}, got {prefix.shape[0]}")
    metrics = _metric_table(code) @ llrs / 2.0
    value = 0
    for bit in prefix:
        value = (value << 1) | int(bit)
    block = 1 << (n - i)
    seg = metrics[value * block : (value + 1) * block]
    half = block >> 1

    def lse(v):
        mx = v.max()
        return mx + np.log(np.exp(v - mx).sum())

    return float(lse(seg[:half]) - lse(seg[half:]))


def row_major_kernel_update(rows, i, llr_rows, ps_rows, mode="exact"):
    """The kernel update of input bit i over (R, p) blocks, block-major.

    Each block's output LLRs are sign-flipped by the codeword of its
    known bits, scored against the (p, 2^(p-i)) metric table of the
    unknown bits and reduced over the last axis of (R, 2, half) work
    arrays, the first half holding the completions with u_i = 0. The
    result is saturated to +-40. These are the operations, in the same
    order, of the update before its work arrays became hypothesis-major.
    For p >= 4 they fix the order of every sum, as the package does: a
    metric adds the scores of at most 3 outputs at a time, left to right,
    and a run of 8 or more adds its second half into its first until one
    term is left.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    p = len(rows)
    llr_rows = np.asarray(llr_rows, dtype=np.float64).reshape(-1, p)
    count = 1 << (p - i)
    completions = (np.arange(count)[:, None] >> np.arange(p - i - 1, -1, -1)) & 1
    table = np.ascontiguousarray((1.0 - 2.0 * (completions @ rows[i:] % 2)).T / 2.0)
    groups = llr_rows
    if i:
        known = np.asarray(ps_rows, dtype=np.int64).reshape(len(llr_rows), i)
        groups = llr_rows * (1.0 - 2.0 * (known @ rows[:i] % 2))
    metrics = groups[:, :3] @ table[:3]
    for m in range(3, p, 3):
        metrics = metrics + groups[:, m : m + 3] @ table[m : m + 3]
    metrics = metrics.reshape(len(groups), 2, count >> 1)
    best = np.maximum.reduce(metrics, axis=2)
    if mode == "exact":
        shifted = np.exp(metrics - best[:, :, None])
        if shifted.shape[2] < 8:
            shifted = np.add.reduce(shifted, axis=2, keepdims=True)
        while shifted.shape[2] > 1:
            half = shifted.shape[2] // 2
            shifted = shifted[:, :, :half] + shifted[:, :, half:]
        best = best + np.log(shifted[:, :, 0])
    return np.clip(best[:, 0] - best[:, 1], -40.0, 40.0)
