"""Kernel validation, the GF(2) block map and the LLR update rules."""

import itertools
import warnings

import numpy as np
import pytest

from mkpolar import (
    LLR_MAX,
    CodeSpec,
    IndexOutOfRange,
    KernelMatrix,
    LengthMismatch,
    NonFiniteInput,
    NotSquare,
    SingularKernel,
    UnsupportedKernelSize,
    builtin_kernel,
    encode,
    llr_kernel_batch,
)
import mkpolar.kernels
from mkpolar.kernels import WorkArrays, llr_candidate_steps, product_steps, zero_prefix_steps
from oracles import row_major_kernel_update
from reference_sc import kernel_marginal_llr

T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)
LOWER3 = np.tril(np.ones((3, 3), dtype=np.uint8))

# Value computed with kernel_marginal_llr and frozen here.
T3_BIT0_ALL_ONES_LLR = 0.19801683714598628


def update(kernel, i, llrs, known=(), mode="exact"):
    """The update of input bit i of one block: a one-block llr_kernel_batch call."""
    return float(llr_kernel_batch(kernel, i, llrs, known, mode))


def block_map(u, kernel):
    """u * T over GF(2): the encoder of the one-kernel code."""
    return encode(CodeSpec([kernel]), u)


def test_builtin_kernels_match_definitions():
    assert np.array_equal(builtin_kernel(2).rows, T2)
    assert np.array_equal(builtin_kernel(3).rows, T3)
    assert builtin_kernel(2).p == 2
    assert builtin_kernel(3).p == 3


@pytest.mark.parametrize("p", [1, 4, 5, 17])
def test_builtin_kernel_unsupported_sizes(p):
    with pytest.raises(UnsupportedKernelSize):
        builtin_kernel(p)


def binary_matrices_by_det_parity(parity):
    """Every 2x2 and 3x3 binary matrix, then 2000 seeded random ones each of
    sizes 4, 5 and 6, whose integer determinant has the given parity: an
    oracle independent of GF(2) arithmetic, since det T mod 2 is the GF(2)
    determinant."""
    batches = []
    for p in (2, 3):
        bits = np.arange(1 << (p * p))[:, None] >> np.arange(p * p) & 1
        batches.append(bits.astype(np.uint8).reshape(-1, p, p))
    rng = np.random.default_rng(11)
    batches += [rng.integers(0, 2, (2000, p, p), dtype=np.uint8) for p in (4, 5, 6)]
    return [m for batch in batches for m in batch[np.round(np.linalg.det(batch)) % 2 == parity]]


def test_validate_kernel_accepts_nonsingular():
    k = KernelMatrix(np.eye(5, dtype=np.uint8))
    assert k.p == 5
    assert np.array_equal(k.rows, np.eye(5, dtype=np.uint8))
    matrices = binary_matrices_by_det_parity(1)
    assert sum(len(m) == 3 for m in matrices) == 168  # the order of GL(3, 2)
    for m in matrices:
        assert np.array_equal(KernelMatrix(m).rows, m)


def test_validate_kernel_rejects_non_square():
    with pytest.raises(NotSquare):
        KernelMatrix(np.ones((2, 3), dtype=np.uint8))
    with pytest.raises(NotSquare):
        KernelMatrix(np.array([1, 0], dtype=np.uint8))


def test_validate_kernel_rejects_singular():
    named = [
        [[1, 1], [1, 1]],
        np.zeros((3, 3), dtype=np.uint8),
        # distinct nonzero rows, yet dependent over GF(2)
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # integer determinant 2
        [[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]],  # last row: XOR of the others
    ]
    for m in named + binary_matrices_by_det_parity(0):
        with pytest.raises(SingularKernel, match="singular over GF"):
            KernelMatrix(np.array(m, dtype=np.uint8))


def test_validate_kernel_rejects_non_binary_entries():
    with pytest.raises(SingularKernel):
        KernelMatrix(np.array([[2, 0], [0, 1]]))


def bits_like(base, value, where):
    """base, an array of 0s and 1s, with entry `where` set to value in
    value's own dtype; a dtype casts base, and "empty" keeps none of its rows."""
    if isinstance(value, str):
        return base[:0].astype(np.float64)
    if isinstance(value, type):
        return base.astype(value)
    x = base.astype(np.asarray(value).dtype)
    x[where] = value
    return x


def rejects_bits(call, x, error):
    """Whether call(x) fails the check that its bits are 0 or 1."""
    try:
        call(x)
    except error as exc:
        if "0 or 1" in str(exc):
            return True
        raise
    return False


@pytest.mark.parametrize("value", [2, -1, 0.5, np.nan, True, 1.0, 1 + 0j, np.uint8, np.int64, np.bool_, "empty"])
def test_bit_checks_take_the_verdict_of_isin(value):
    # Every entry point that takes bits accepts exactly the arrays that
    # np.isin(x, (0, 1)).all(), its former check, accepted.
    word = np.array([[0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0]])
    known = np.array([[0, 1], [1, 1], [0, 0]])
    rngs = [np.random.default_rng(0)]
    entries = [
        (lambda x: encode(CodeSpec((2, 2, 3)), x), word, ValueError),
        (lambda x: mkpolar.awgn_llrs(x, 1.0, 0.5, rngs * len(x), noiseless=True), word, ValueError),
        (lambda x: llr_kernel_batch(builtin_kernel(3), 2, np.ones((len(x), 3)), x), known, ValueError),
    ]
    if value != "empty":  # an empty kernel is not square
        entries.append((KernelMatrix, np.array([[1, 0], [1, 1]]), SingularKernel))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)  # the cast to uint8 of 1 + 0j
        for call, base, error in entries:
            x = bits_like(base, value, (-1, 0))
            assert rejects_bits(call, x, error) == (not np.isin(x, (0, 1)).all()), (call, x)


def test_validate_kernel_rejects_size_one():
    with pytest.raises(UnsupportedKernelSize):
        KernelMatrix(np.array([[1]], dtype=np.uint8))


def test_kernel_rows_are_read_only():
    k = builtin_kernel(2)
    with pytest.raises(ValueError):
        k.rows[0, 0] = 0


@pytest.mark.parametrize("rows", [T2, T3, LOWER3, np.tril(np.ones((4, 4), dtype=np.uint8))])
def test_product_steps_write_into_a_strided_target(rows):
    # As PROPAGATE binds it: words (F, R, p), and the target a column of
    # an (F, R, p, width) array, so every word's p outputs lie width apart.
    k = KernelMatrix(rows)
    words = np.random.default_rng(9).integers(0, 2, (5, 7, k.p), dtype=np.uint8)
    column = np.full((5, 7, k.p, 4), 7, dtype=np.uint8)
    target = column[..., 2]
    for fn, args in product_steps(k, words, target):
        fn(*args)
    assert not target.flags.contiguous
    assert np.array_equal(target, words @ k.rows % 2)
    assert (np.delete(column, 2, axis=-1) == 7).all()  # no other column written


def test_ps_map_examples():
    assert np.array_equal(block_map((1, 0, 0), builtin_kernel(3)), [1, 1, 1])
    assert np.array_equal(block_map((1, 1), builtin_kernel(2)), [0, 1])
    assert np.array_equal(block_map((0, 0), builtin_kernel(2)), [0, 0])


def test_ps_map_length_mismatch():
    with pytest.raises(LengthMismatch):
        block_map((1, 0), builtin_kernel(3))


@pytest.mark.parametrize(
    "rows",
    [
        T2,
        T3,
        np.tril(np.ones((4, 4), dtype=np.uint8)),
    ],
)
def test_ps_map_is_linear_and_bijective(rows):
    k = KernelMatrix(rows)
    p = k.p
    words = list(itertools.product((0, 1), repeat=p))
    images = [tuple(block_map(w, k)) for w in words]
    assert len(set(images)) == len(words)
    for a in words[:8]:
        for b in words[:8]:
            xor = tuple(x ^ y for x, y in zip(a, b))
            lhs = block_map(xor, k)
            rhs = block_map(a, k) ^ block_map(b, k)
            assert np.array_equal(lhs, rhs)


def test_llr_kernel_exact_examples():
    k2, k3 = builtin_kernel(2), builtin_kernel(3)
    assert abs(update(k2, 1, [3.0, 2.0], [1]) - (-1.0)) < 1e-12
    assert abs(update(k2, 0, [0.0, 5.0])) < 1e-12
    assert abs(update(k3, 0, [1.0, 1.0, 1.0]) - T3_BIT0_ALL_ONES_LLR) < 1e-12


def test_llr_kernel_minsum_examples():
    k2 = builtin_kernel(2)
    assert update(k2, 0, [2.0, -3.0], mode="minsum") == -2.0
    assert update(k2, 1, [3.0, 2.0], [0], mode="minsum") == 5.0


def test_exact_matches_brute_force_all_kernels():
    rng = np.random.default_rng(42)
    for rows in (T2, T3):
        k = KernelMatrix(rows)
        for i in range(k.p):
            for _ in range(50):
                llrs = rng.normal(0.0, 2.0, k.p)
                prefix = rng.integers(0, 2, i)
                got = update(k, i, llrs, prefix)
                want = kernel_marginal_llr(rows, i, llrs, prefix, "exact")
                assert abs(got - want) < 1e-10


def test_minsum_matches_brute_force_all_kernels():
    rng = np.random.default_rng(43)
    for rows in (T2, T3):
        k = KernelMatrix(rows)
        for i in range(k.p):
            for _ in range(50):
                llrs = rng.normal(0.0, 2.0, k.p)
                prefix = rng.integers(0, 2, i)
                got = update(k, i, llrs, prefix, mode="minsum")
                want = kernel_marginal_llr(rows, i, llrs, prefix, "minsum")
                assert abs(got - want) < 1e-10


def test_size2_exact_equals_tanh_rule():
    # The arctanh form itself loses digits once tanh saturates, so the
    # comparison tolerance is what that formula can deliver, not 1 ulp.
    k2 = builtin_kernel(2)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        l0, l1 = rng.uniform(-20.0, 20.0, 2)
        want = 2.0 * np.arctanh(np.tanh(l0 / 2.0) * np.tanh(l1 / 2.0))
        assert abs(update(k2, 0, [l0, l1]) - want) < 1e-7


def test_size2_exact_bit1_is_affine():
    k2 = builtin_kernel(2)
    rng = np.random.default_rng(8)
    for _ in range(500):
        l0, l1 = rng.uniform(-30.0, 30.0, 2)
        for u0 in (0, 1):
            want = (1.0 - 2.0 * u0) * l0 + l1
            got = update(k2, 1, [l0, l1], [u0])
            assert abs(got - np.clip(want, -LLR_MAX, LLR_MAX)) < 1e-12


def test_minsum_sign_agreement_with_exact():
    rng = np.random.default_rng(44)
    for p in (2, 3):
        k = builtin_kernel(p)
        checked = 0
        for _ in range(10000):
            i = int(rng.integers(0, p))
            llrs = rng.normal(0.0, 2.0, p)
            prefix = rng.integers(0, 2, i)
            want = update(k, i, llrs, prefix)
            if abs(want) <= 1.0:
                continue
            checked += 1
            assert np.sign(update(k, i, llrs, prefix, mode="minsum")) == np.sign(want)
        # the property must not be vacuously true
        assert checked > 4000


def test_updates_saturate():
    k2 = builtin_kernel(2)
    assert update(k2, 1, [LLR_MAX, LLR_MAX], [0]) == LLR_MAX
    assert update(k2, 1, [-LLR_MAX, -LLR_MAX], [0], mode="minsum") == -LLR_MAX


def test_saturation_is_the_clip_ufunc_at_its_private_path():
    # Every candidate pass saturates in one call of numpy's clip ufunc,
    # which numpy keeps at a private path: a numpy that moves it or
    # changes it must fail here, not in a decode.
    clip = np._core.umath.clip
    assert isinstance(clip, np.ufunc) and clip.nin == 3
    assert mkpolar.kernels._clip is clip
    values = np.array([0.0, -0.0, 40.0, -40.0, 1e300, -1e300, np.inf, -np.inf, np.nan])
    want = np.maximum(np.minimum(values, LLR_MAX), -LLR_MAX)
    got = np.empty_like(values)
    clip(values, -LLR_MAX, LLR_MAX, got)
    assert got.tobytes() == want.tobytes()
    # the passes' 0-d rails
    got = np.empty_like(values)
    clip(values, mkpolar.kernels._LO, mkpolar.kernels._HI, got)
    assert got.tobytes() == want.tobytes()


def test_minsum_tie_returns_exact_zero():
    k2 = builtin_kernel(2)
    assert update(k2, 0, [2.0, 0.0], mode="minsum") == 0.0
    assert update(builtin_kernel(3), 0, [0.0, 0.0, 0.0]) == 0.0


def test_flip_symmetry_properties():
    # Negating every output LLR touched by input row j is the same as
    # flipping known bit j; doing it for the hypothesis row negates the
    # result.
    rng = np.random.default_rng(45)
    for rows in (T2, T3):
        k = KernelMatrix(rows)
        p = k.p
        for _ in range(100):
            llrs = rng.normal(0.0, 2.0, p)
            i = int(rng.integers(0, p))
            prefix = rng.integers(0, 2, i)
            base = update(k, i, llrs, prefix)
            flip_hyp = llrs * (1.0 - 2.0 * rows[i])
            assert abs(update(k, i, flip_hyp, prefix) + base) < 1e-10
            if i:
                j = int(rng.integers(0, i))
                flipped = prefix.copy()
                flipped[j] ^= 1
                flip_known = llrs * (1.0 - 2.0 * rows[j])
                assert (
                    abs(update(k, i, flip_known, prefix) -
                        update(k, i, llrs, flipped)) < 1e-10
                )


def test_update_argument_validation():
    k2, k3 = builtin_kernel(2), builtin_kernel(3)
    for i in (2, -1):
        with pytest.raises(IndexOutOfRange):
            llr_kernel_batch(k2, i, [1.0, 1.0], [0] * max(i, 0))
    # a bit index must be a whole number: 1.0 means 1, anything else is
    # refused before any array work
    for i in (1.5, "1", None, np.nan, np.inf, 1j):
        with pytest.raises(IndexOutOfRange):
            llr_kernel_batch(k3, i, [1.0, 2.0, 3.0], [0])
    for i in (1.0, np.float64(1.0), True, np.int8(1)):
        assert llr_kernel_batch(k3, i, [1.0, 2.0, 3.0], [0]) == llr_kernel_batch(k3, 1, [1.0, 2.0, 3.0], [0])
    for i in (3.0, np.int8(3), -1.0):  # whole, but no bit of a size-3 kernel
        with pytest.raises(IndexOutOfRange):
            llr_kernel_batch(k3, i, [1.0, 2.0, 3.0], [0, 0, 0])
    # LLRs that are both non-finite and of the wrong shape fail as non-finite
    with pytest.raises(NonFiniteInput):
        llr_kernel_batch(k2, 0, [np.nan, 1.0, 1.0], [])
    with pytest.raises(LengthMismatch):
        llr_kernel_batch(k2, 0, [1.0, 1.0, 1.0], [])
    with pytest.raises(LengthMismatch):
        llr_kernel_batch(k2, 1, [1.0, 1.0], [])  # missing known bit
    with pytest.raises(LengthMismatch):
        llr_kernel_batch(k2, 0, [1.0, 1.0], [0], "minsum")
    with pytest.raises(LengthMismatch):
        llr_kernel_batch(k2, 1, np.ones((3, 2)), np.zeros((2, 1), dtype=np.uint8))
    # known bits index a table, so a 2 must not pass as some other prefix
    with pytest.raises(ValueError, match="0 or 1"):
        llr_kernel_batch(k3, 2, [1.0, 2.0, 3.0], [0, 2])
    with pytest.raises(ValueError, match="0 or 1"):
        llr_kernel_batch(k3, 1, [[1.0, 2.0, 3.0]], [[2]])
    with pytest.raises(ValueError, match="0 or 1"):
        llr_kernel_batch(k3, 1, [[1.0, 2.0, 3.0]], [[-1]], "minsum")
    # the real part alone would pass as a plausible update
    for rows in ([1.0 + 2j, 1.0], np.ones((3, 2), np.complex128)):
        with pytest.raises(ValueError, match="real"):
            llr_kernel_batch(k2, 0, rows, np.zeros(np.shape(rows)[:-1] + (0,)))


def test_batch_matches_scalar():
    # every block of a batch gets exactly its one-block update
    rng = np.random.default_rng(46)
    for p in (2, 3):
        k = builtin_kernel(p)
        for i in range(p):
            llr_rows = rng.normal(0.0, 3.0, (64, p))
            ps_rows = rng.integers(0, 2, (64, i), dtype=np.uint8)
            for mode in ("exact", "minsum"):
                batch = llr_kernel_batch(k, i, llr_rows, ps_rows, mode)
                for r in range(64):
                    assert abs(batch[r] - update(k, i, llr_rows[r], ps_rows[r], mode)) < 1e-12


def test_batch_rejects_unknown_mode():
    k2 = builtin_kernel(2)
    with pytest.raises(ValueError):
        llr_kernel_batch(k2, 0, np.zeros((1, 2)), np.zeros((1, 0), dtype=np.uint8), "soft")


# 1.7e308 and -1e301 are finite but overflow a metric of a few of them
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7e308, -1e301])
def test_updates_reject_non_finite_llrs(bad):
    k3 = builtin_kernel(3)
    llr_rows = np.ones((4, 3))
    llr_rows[2, 1] = bad
    with pytest.raises(NonFiniteInput):
        llr_kernel_batch(k3, 1, llr_rows, np.zeros((4, 1), dtype=np.uint8))
    with pytest.raises(NonFiniteInput):
        update(k3, 0, llr_rows[2])
    with pytest.raises(NonFiniteInput):
        update(k3, 2, llr_rows[2], [0, 1], mode="minsum")


def update_inputs(rng, count, p, i):
    """(count, p) LLRs with ties, saturated and tiny entries up front, and
    (count, i) known bits."""
    llr_rows = rng.normal(0.0, 3.0, (count, p))
    special = np.array([[0.0] * p, [LLR_MAX] * p, [-LLR_MAX, LLR_MAX] + [0.0] * (p - 2),
                        [1e-300] * p, [2.0, -2.0] + [2.0] * (p - 2)])
    llr_rows[: len(special)] = special[:count]
    return llr_rows, rng.integers(0, 2, (count, i), dtype=np.uint8)


@pytest.mark.parametrize(
    "p, rows",
    [(2, T2), (3, T3), (3, LOWER3), (4, None), (5, None)],
    ids=["T2", "T3", "lower3", "lower4", "lower5"],
)
def test_batch_matches_row_major_update(p, rows):
    # Sums of at most 3 terms and reductions over at most 4 come out the
    # same in either layout, whatever the number of blocks; longer ones
    # may be added in another order, so they agree up to rounding.
    rows = np.tril(np.ones((p, p), dtype=np.uint8)) if rows is None else rows
    k = KernelMatrix(rows)
    rng = np.random.default_rng(48)
    for i in range(p):
        for count in (1, 7, 1000, 20000):
            llr_rows, ps_rows = update_inputs(rng, count, p, i)
            for mode in ("exact", "minsum"):
                got = llr_kernel_batch(k, i, llr_rows, ps_rows, mode)
                want = row_major_kernel_update(rows, i, llr_rows, ps_rows, mode)
                if p <= 3:
                    assert got.tobytes() == want.tobytes(), (i, count, mode)
                else:
                    assert np.abs(got - want).max() <= 1e-12, (i, count, mode)


@pytest.mark.parametrize(
    "p, rows",
    [(2, T2), (3, T3), (3, LOWER3), (4, None), (5, None)],
    ids=["T2", "T3", "lower3", "lower4", "lower5"],
)
def test_candidates_are_the_updates_of_every_prefix(p, rows):
    # Row 2 (2^t - 1 + v) holds the update of bit t after the known
    # prefix v (first bit most significant): the same bits as the
    # block-major rule for kernels of size <= 3, the same up to rounding
    # beyond.
    rows = np.tril(np.ones((p, p), dtype=np.uint8)) if rows is None else rows
    k = KernelMatrix(rows)
    rng = np.random.default_rng(49)
    for count in (1, 7, 1000):
        llr_rows, _ = update_inputs(rng, count, p, 0)
        for mode in ("exact", "minsum"):
            table = np.empty((2 * ((1 << p) - 1), count))
            for fn, args in llr_candidate_steps(k, mode, llr_rows, table, WorkArrays()):
                fn(*args)
            for t in range(p):
                for v in range(1 << t):
                    prefix = [(v >> (t - 1 - j)) & 1 for j in range(t)]
                    known = np.tile(np.array(prefix, dtype=np.uint8), (count, 1))
                    want = row_major_kernel_update(rows, t, llr_rows, known, mode)
                    got = table[2 * ((1 << t) - 1 + v)]
                    if p <= 3:
                        assert got.tobytes() == want.tobytes(), (t, v, count, mode)
                    else:
                        assert np.abs(got - want).max() <= 1e-12, (t, v, count, mode)


@pytest.mark.parametrize("p, rows", [(3, T3), (5, None)], ids=["T3", "lower5"])
def test_one_bit_update_exponentiates_only_its_own_runs(monkeypatch, p, rows):
    # A one-bit call forms the log-sum-exp of bit i's 2^(i+1) runs alone,
    # 2^p words per block, and the last bit, whose runs are single words,
    # none.
    k = KernelMatrix(np.tril(np.ones((p, p), dtype=np.uint8)) if rows is None else rows)
    sizes, exp = [], np.exp

    def counted(x, *args):
        sizes.append(x.size)
        return exp(x, *args)

    monkeypatch.setattr(np, "exp", counted)
    rng = np.random.default_rng(51)
    for count in (1, 20):
        llr_rows, _ = update_inputs(rng, count, p, 0)
        for i in range(p):
            sizes.clear()
            llr_kernel_batch(k, i, llr_rows, np.zeros((count, i), dtype=np.uint8))
            assert sizes == ([(1 << p) * count] if i < p - 1 else []), (count, i)


@pytest.mark.parametrize("mode", ["exact", "minsum"])
@pytest.mark.parametrize(
    "rows",
    [T2, T3, LOWER3, np.tril(np.ones((4, 4), dtype=np.uint8)), np.tril(np.ones((5, 5), dtype=np.uint8))],
    ids=["T2", "T3", "lower3", "lower4", "lower5"],
)
def test_zero_prefix_updates_are_the_candidates_after_prefix_zero(rows, mode):
    # out[t] is row 2 (2^t - 1) of the candidate table byte for byte, on
    # tie-prone LLRs, whether out is an array of its own or the memory of
    # groups, as in the level passes of construction and of all-frozen
    # sub-codes; for kernels of every size, as both passes bind their
    # metrics and sums by one core.
    k = KernelMatrix(rows)
    rng = np.random.default_rng(50)
    values = np.array([0.0, 0.7, -0.7, 1.3, -1.3, 2.9, -2.9, 40.0, -40.0])
    for count in (1, 7, 2000):
        groups = rng.choice(values, (count, k.p))
        table = np.empty((2 * ((1 << k.p) - 1), count))
        for fn, args in llr_candidate_steps(k, mode, groups, table, WorkArrays()):
            fn(*args)
        want = table[[2 * ((1 << t) - 1) for t in range(k.p)]]
        shared = groups.copy()
        for source, out in ((groups, np.empty((k.p, count))), (shared, shared.reshape(k.p, count))):
            for fn, args in zero_prefix_steps(k, mode, source, out, WorkArrays()):
                fn(*args)
            assert out.tobytes() == want.tobytes(), (count, np.shares_memory(source, out))
