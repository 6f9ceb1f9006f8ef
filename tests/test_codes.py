"""Mixed-radix indexing, encoding, permutation, construction, code files."""

import itertools

import numpy as np
import pytest

from mkpolar import (
    CodeFileError,
    CodeSpec,
    FrozenViolation,
    IndexOutOfRange,
    InvalidK,
    KernelMatrix,
    LengthMismatch,
    UnsupportedKernelSize,
    channel_permutation,
    construct_frozen_mc,
    encode,
    format_code_file,
    load_code,
    memory_report,
    parse_code_file,
    save_code,
)
from mkpolar import simulation
from oracles import (
    TooLarge,
    digits_to_index,
    mixed_radix_digits,
    naive_generator,
    start_stage,
    trailing_max_run,
)
from reference_sc import all_kernel_sequences

BASES_223 = (2, 2, 3)

# Digits of every index of the <2,2,3> code, most significant first.
DIGIT_TABLE_223 = [
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
    (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
]


def test_mixed_radix_examples():
    table = CodeSpec(BASES_223).digit_table
    for i, digits in ((7, (1, 0, 1)), (11, (1, 1, 2)), (0, (0, 0, 0))):
        assert tuple(table[i]) == mixed_radix_digits(i, BASES_223) == digits


def test_mixed_radix_full_table():
    table = CodeSpec(BASES_223).digit_table
    assert table.tolist() == [list(digits) for digits in DIGIT_TABLE_223]
    for i, digits in enumerate(DIGIT_TABLE_223):
        assert mixed_radix_digits(i, BASES_223) == digits
        assert digits_to_index(digits, BASES_223) == i


def test_mixed_radix_round_trip_random_bases():
    rng = np.random.default_rng(1)
    k5 = KernelMatrix(np.eye(5, dtype=np.uint8))
    for _ in range(50):
        bases = tuple(int(p) for p in rng.choice([2, 3, 5], size=rng.integers(1, 7)))
        table = CodeSpec([k5 if p == 5 else p for p in bases]).digit_table
        n = int(np.prod(bases))
        for i in (0, 1, n - 1, int(rng.integers(0, n))):
            assert tuple(table[i]) == mixed_radix_digits(i, bases)
            assert digits_to_index(table[i], bases) == i


def test_start_stage_examples():
    assert start_stage(6, BASES_223) == 1
    assert start_stage(0, BASES_223) == 1
    assert start_stage(5, BASES_223) == 3
    assert start_stage(3, BASES_223) == 2
    for bases in [BASES_223, (3, 2, 2), (2, 3, 2, 3), (2,) * 6, (3, 3, 3)]:
        stages = CodeSpec(bases).start_stages
        assert stages.tolist() == [start_stage(i, bases) for i in range(len(stages))]


def test_trailing_max_run_examples():
    assert trailing_max_run(5, BASES_223) == 2
    assert trailing_max_run(0, BASES_223) == 0
    assert trailing_max_run(11, BASES_223) == 3


def test_consecutive_indices_share_digit_prefix():
    # Digits left of the start stage never change between i-1 and i,
    # which is what makes skipping those stage updates sound.
    for bases in [(2, 2, 3), (3, 2, 2), (2, 3, 2, 3), (2,) * 6, (3, 3, 3)]:
        code = CodeSpec(bases)
        table = code.digit_table
        for i in range(1, code.N):
            z = code.start_stages[i]
            assert np.array_equal(table[i - 1, : z - 1], table[i, : z - 1])


def test_code_spec_basics():
    code = CodeSpec(BASES_223, (0, 1, 2, 3, 4, 6))
    assert code.N == 12 and code.K == 6 and code.s == 3
    assert code.frozen == (0, 1, 2, 3, 4, 6)
    assert code.info == (5, 7, 8, 9, 10, 11)
    assert code.frozen_mask[0] and not code.frozen_mask[5]


def test_code_spec_validation():
    with pytest.raises(IndexOutOfRange):
        CodeSpec(BASES_223, (12,))
    with pytest.raises(ValueError):
        CodeSpec(BASES_223, (3, 3))
    with pytest.raises(ValueError):
        CodeSpec(())
    # a non-integral index is refused, not truncated; integral values of
    # any numeric type are taken
    with pytest.raises(ValueError):
        CodeSpec(BASES_223, [1.7])
    assert CodeSpec(BASES_223, [np.int64(1), 2.0]).frozen == (1, 2)


@pytest.mark.parametrize("index", [np.inf, -np.inf, np.nan])
def test_code_spec_rejects_non_finite_frozen_index(index):
    # inf used to raise OverflowError from int()
    with pytest.raises(ValueError):
        CodeSpec((2, 2), [index])


def test_encode_unit_vector_rows():
    code = CodeSpec(BASES_223)
    e0 = np.zeros(12, dtype=np.uint8)
    e0[0] = 1
    assert np.array_equal(encode(code, e0), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    e10 = np.zeros(12, dtype=np.uint8)
    e10[10] = 1
    assert np.array_equal(encode(code, e10), [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1])


def test_encode_zero_message():
    code = CodeSpec(BASES_223, (0, 1, 2, 3, 4, 6))
    assert not encode(code, np.zeros(12, dtype=np.uint8)).any()


def test_encode_matches_naive_generator_everywhere():
    rng = np.random.default_rng(2)
    for bases in all_kernel_sequences(72):
        code = CodeSpec(bases)
        g = naive_generator(bases)
        n = code.N
        u = rng.integers(0, 2, (1000, n), dtype=np.uint8)
        want = u @ g % 2
        for r in range(0, 1000, 97):
            assert np.array_equal(encode(code, u[r]), want[r])
        # identity rows pin every generator entry
        eye = np.eye(n, dtype=np.uint8)
        for r in range(n):
            assert np.array_equal(encode(code, eye[r]), g[r])


def test_encode_batch_equals_rows():
    rng = np.random.default_rng(3)
    for bases in all_kernel_sequences(72):
        code = CodeSpec(bases)
        u = rng.integers(0, 2, (50, code.N), dtype=np.uint8)
        x = encode(code, u)
        assert x.shape == u.shape and x.dtype == np.uint8
        assert np.array_equal(x, u @ naive_generator(bases) % 2)
        for r in range(50):
            assert np.array_equal(x[r], encode(code, u[r]))


LOWER3 = KernelMatrix(np.tril(np.ones((3, 3), dtype=np.uint8)))
K4 = KernelMatrix([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]])


@pytest.mark.parametrize("kernels", [(LOWER3, 2), (2, LOWER3), (2, LOWER3, 3), (K4, 3), (3, K4),
                                     (2, K4, LOWER3), (K4,)])
def test_encode_custom_kernels_match_naive_generator(kernels):
    # custom kernels at the outer, middle and inner positions
    code = CodeSpec(kernels)
    g = naive_generator(kernels)
    rng = np.random.default_rng(13)
    for frames in (0, 1, 7):
        u = rng.integers(0, 2, (frames, code.N), dtype=np.uint8)
        x = encode(code, u)
        assert x.shape == u.shape and x.dtype == np.uint8
        assert np.array_equal(x, u @ g % 2)
    eye = np.eye(code.N, dtype=np.uint8)
    assert np.array_equal(encode(code, eye), g)
    assert np.array_equal(encode(code, eye[3]), g[3])


@pytest.mark.parametrize("bases", [BASES_223, (3, 2)])
def test_encode_returns_a_fresh_contiguous_uint8_array(bases):
    # an odd and an even number of kernels: the stages alternate between
    # two arrays, so either one can hold the result
    code = CodeSpec(bases)
    g = naive_generator(bases)
    n = code.N
    batch = np.random.default_rng(17).integers(0, 2, (6, 2 * n), dtype=np.uint8)
    inputs = [batch[0, :n], batch[:3, :n], batch[:, ::2], np.asfortranarray(batch[:, n:]),
              batch[0, :n].astype(np.int64), batch[:2, :n].astype(bool), batch[1, :n].tolist()]
    for u in inputs:
        before = np.array(u, dtype=np.uint8)
        x = encode(code, u)
        assert x.dtype == np.uint8 and x.flags.c_contiguous and x.shape == before.shape
        assert np.array_equal(x, before @ g % 2)
        assert not np.shares_memory(x, batch) and not np.shares_memory(x, np.asarray(u))
        assert np.array_equal(np.array(u, dtype=np.uint8), before)  # u is left as it was


def test_encode_validation():
    code = CodeSpec(BASES_223, (0,))
    with pytest.raises(LengthMismatch):
        encode(code, np.zeros(11, dtype=np.uint8))
    with pytest.raises(LengthMismatch):
        encode(code, np.zeros((2, 11), dtype=np.uint8))
    with pytest.raises(LengthMismatch):
        encode(code, np.zeros((2, 2, 12), dtype=np.uint8))
    batch = np.zeros((3, 12), dtype=np.uint8)
    batch[1, 0] = 1
    with pytest.raises(FrozenViolation, match="position 0"):
        encode(code, batch)
    with pytest.raises(ValueError):
        encode(code, np.full(12, 2, dtype=np.uint8))
    bad = np.zeros(12, dtype=np.uint8)
    bad[0] = 1
    with pytest.raises(FrozenViolation):
        encode(code, bad)


def test_naive_generator_limit():
    g = naive_generator((2,) * 12)
    assert g.shape == (4096, 4096)
    with pytest.raises(TooLarge):
        naive_generator((2,) * 13)


def test_channel_permutation_examples():
    assert np.array_equal(channel_permutation((2, 2)), [0, 2, 1, 3])
    assert channel_permutation(BASES_223)[1] == 4
    # sizes without a built-in kernel, and whole floats, are sizes too
    assert np.array_equal(channel_permutation((4, 2)), [0, 4, 1, 5, 2, 6, 3, 7])
    assert np.array_equal(channel_permutation((2.0, 3)), channel_permutation((2, 3)))


def _q_bits(value):
    return memory_report((2, 2, 3), value).q_bits


def _frozen_index(value):
    return CodeSpec((2, 2, 3), (value,)).frozen[0]


NOT_WHOLE = {"nan": np.nan, "inf": np.inf, "str": "3", "None": None}


@pytest.mark.parametrize("call, args, error", [
    (CodeSpec, ((2.5, 3),), UnsupportedKernelSize),
    (memory_report, ((2.9, 3),), UnsupportedKernelSize),
    (channel_permutation, ((2.5, 3),), UnsupportedKernelSize),
    (channel_permutation, ((),), ValueError),
    (channel_permutation, ((0,),), UnsupportedKernelSize),
    (channel_permutation, ((2, 1),), UnsupportedKernelSize),
    (memory_report, ((2, 2, 3), 2.5), ValueError),
    *[(_q_bits, (value,), ValueError) for value in NOT_WHOLE.values()],
    *[(_frozen_index, (value,), ValueError) for value in NOT_WHOLE.values()],
    (_q_bits, (0.0,), ValueError),
    (_frozen_index, (12.0,), IndexOutOfRange),
    (_frozen_index, (np.int8(-1),), IndexOutOfRange),
    (_q_bits, (3.0,), None),
    (_q_bits, (np.int8(3),), None),
    (_frozen_index, (3.0,), None),
    (_frozen_index, (np.int8(3),), None),
], ids=["code", "memory", "permutation", "empty", "zero", "one", "q_bits",
        *[f"q_bits-{name}" for name in NOT_WHOLE], *[f"frozen-{name}" for name in NOT_WHOLE],
        "q_bits-zero", "frozen-N", "frozen-negative", "q_bits-float", "q_bits-int8", "frozen-float", "frozen-int8"])
def test_sizes_and_q_bits_must_be_whole(call, args, error):
    # int() would truncate 2.5 to 2 and build the (2, 3) code
    if error is None:  # a whole number in range counts as the int it equals
        value = call(*args)
        assert value == 3 and type(value) is int
        return
    with pytest.raises(error):
        call(*args)


def test_channel_permutation_definition():
    # sizes without a built-in kernel take a KernelMatrix in the code
    custom = {p: KernelMatrix(np.tril(np.ones((p, p), dtype=np.uint8))) for p in (4, 5, 7)}
    for bases in [(2, 2, 3), (3, 2), (2, 3, 2), (3, 3, 2, 2), (4, 5, 7), (7, 2, 4), (5,), (3,)]:
        perm = channel_permutation(bases)
        assert perm.dtype == np.int64
        assert not np.shares_memory(perm, channel_permutation(bases))
        code = CodeSpec([custom.get(p, p) for p in bases])
        table = code.digit_table
        assert table.dtype == np.int64
        # slot perm[j] ingests codeword position j
        assert np.array_equal(code.channel_order[perm], np.arange(code.N))
        n = int(np.prod(bases))
        assert sorted(perm) == list(range(n))
        weights = []
        w = 1
        for p in bases:
            weights.append(w)
            w *= p
        for j in range(n):
            digits = mixed_radix_digits(j, bases)
            assert tuple(table[j]) == digits
            assert perm[j] == sum(d * wt for d, wt in zip(digits, weights))
    # channel_order, digit reversal under the reversed bases, inverts the
    # permutation: every sequence of 1 to 5 sizes from 2 to 5, 1364 in all
    sequences = [bases for length in range(1, 6) for bases in itertools.product((2, 3, 4, 5), repeat=length)]
    assert len(sequences) == 1364
    for bases in sequences:
        code = CodeSpec([custom.get(p, p) for p in bases])
        assert np.array_equal(code.channel_order, np.argsort(code.permutation)), bases


def test_construct_is_deterministic():
    a = construct_frozen_mc(BASES_223, 6, 1.0, 100, 9)
    b = construct_frozen_mc(BASES_223, 6, 1.0, 100, 9)
    assert a == b
    assert len(a) == 6
    assert all(0 <= f < 12 for f in a)


def test_construct_frozen_sets_are_pinned():
    # Literal results of three constructions, the first the README's
    # example; (2,2,2,3,3) with 2000 frames runs batches of 910, 910 and 180.
    assert construct_frozen_mc(BASES_223, 6, 1.0, 1000, 0) == (0, 1, 2, 3, 4, 6)
    assert construct_frozen_mc((2, 2, 2, 3, 3), 36, 1.0, 2000, 0) == (
        *range(26), 27, 28, 36, 37, 38, 39, 40, 42, 45, 54)
    assert construct_frozen_mc((2, 2, 2, 2, 3, 3), 72, 1.0, 1000, 0) == (
        *range(32), 33, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 51, 54, 55, 56, 57, 60, 63,
        72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 87, 90, 91, 92, 93, 108)


def test_construct_edge_rates():
    assert construct_frozen_mc(BASES_223, 12, 1.0, 10, 0) == ()
    assert construct_frozen_mc(BASES_223, 0, 1.0, 10, 0) == tuple(range(12))


def test_construct_tie_break_prefers_low_index():
    # At a very high design SNR no bit ever errs, so every count ties at
    # zero and the lowest indices must be frozen.
    frozen = construct_frozen_mc((2, 3), 3, 40.0, 5, 1)
    assert frozen == (0, 1, 2)


def test_construct_counts_genie_ties_as_half_errors():
    # Bit 0 of this code carries no information: its genie decision LLR
    # is 0 up to rounding (0.0 or +-2.2e-16) on every frame. Counting only
    # negative LLRs as errors left it unfrozen for these seeds, and the
    # resulting code lost about every other frame at any SNR.
    for seed in (0, 1, 7):
        frozen = construct_frozen_mc((2, 2, 2, 2, 3, 3), 72, 1.0, 200, seed)
        assert 0 in frozen


def test_construct_seeds_share_no_frame(monkeypatch):
    # Frame f used to draw from seed + f, so seeds 0 and 1 shared the
    # noise of all but one of their frames. Frame f's generator is
    # default_rng([*key, f]), so the keys its seed words are hashed from are recorded.
    real_frame_seeds = simulation._frame_seeds
    requested = []

    def recording_frame_seeds(key, first, count):
        requested[-1].update((*key, f) for f in range(first, first + count))
        return real_frame_seeds(key, first, count)

    monkeypatch.setattr(simulation, "_frame_seeds", recording_frame_seeds)
    for seed in (0, 1):
        requested.append(set())
        construct_frozen_mc(BASES_223, 6, 1.0, 20, seed)
    assert len(requested[0]) == len(requested[1]) == 20
    assert not requested[0] & requested[1]


def test_construct_validation():
    with pytest.raises(InvalidK):
        construct_frozen_mc(BASES_223, 13, 1.0, 10, 0)
    with pytest.raises(InvalidK):
        construct_frozen_mc(BASES_223, -1, 1.0, 10, 0)
    with pytest.raises(ValueError):
        construct_frozen_mc(BASES_223, 6, 1.0, 0, 0)


def test_construct_rejects_fractional_arguments():
    # these used to raise TypeError from deep inside the construction
    with pytest.raises(ValueError):
        construct_frozen_mc(BASES_223, 6.5, 1.0, 10, 0)
    with pytest.raises(ValueError):
        construct_frozen_mc(BASES_223, 6, 1.0, 2.5, 0)
    for bad in NOT_WHOLE.values():
        for k, frames, seed in ((bad, 10, 0), (6, bad, 0), (6, 10, bad)):
            with pytest.raises(ValueError):
                construct_frozen_mc(BASES_223, k, 1.0, frames, seed)
    with pytest.raises(ValueError):
        construct_frozen_mc(BASES_223, 6, 1.0, 10, -1.0)
    assert construct_frozen_mc(BASES_223, 6.0, 1.0, 10.0, 0) == construct_frozen_mc(BASES_223, 6, 1.0, 10, 0)
    whole = construct_frozen_mc(BASES_223, 3, 1.0, 3, 3)
    for value in (3.0, np.int8(3)):
        assert construct_frozen_mc(BASES_223, value, 1.0, value, value) == whole


def test_code_file_round_trip(tmp_path):
    code = CodeSpec(BASES_223, (0, 1, 2, 3, 4, 6))
    text = format_code_file(code)
    assert text == "kernels: 2,2,3\nN: 12\nK: 6\nfrozen: 0,1,2,3,4,6\n"
    parsed = parse_code_file(text)
    assert parsed.bases == code.bases and parsed.frozen == code.frozen
    path = tmp_path / "code.txt"
    save_code(code, path)
    loaded = load_code(path)
    assert loaded.frozen == code.frozen and loaded.K == 6


def test_code_file_refuses_custom_kernels(tmp_path):
    # The file names kernels by size, and loading maps size 3 to the
    # built-in T3, so another 3x3 kernel would come back as a different
    # code.
    custom = KernelMatrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    code = CodeSpec((2, custom), (0,))
    with pytest.raises(CodeFileError):
        format_code_file(code)
    path = tmp_path / "code.txt"
    with pytest.raises(CodeFileError):
        save_code(code, path)
    assert not path.exists()
    # equal contents are the built-in kernel, whatever the object
    t3 = KernelMatrix([[1, 1, 1], [1, 0, 1], [0, 1, 1]])
    assert format_code_file(CodeSpec((2, t3))) == format_code_file(CodeSpec((2, 3)))


def test_code_file_empty_frozen():
    code = CodeSpec((2, 3))
    parsed = parse_code_file(format_code_file(code))
    assert parsed.frozen == () and parsed.K == 6


@pytest.mark.parametrize(
    "text",
    [
        "kernels: 2,2,3\nN: 13\nK: 6\nfrozen: 0,1,2,3,4,6\n",
        "kernels: 2,2,3\nN: 12\nK: 7\nfrozen: 0,1,2,3,4,6\n",
        "kernels: 2,2,3\nN: 12\nK: 6\nfrozen: 0,1,2,3,6,4\n",
        "kernels: 2,2,3\nN: 12\nK: 6\nfrozen: 0,0,1,2,3,4\n",
        "kernels: 2,2,3\nN: 12\nK: 6\nfrozen: 0,1,2,3,4,12\n",
        "kernels: 2,5\nN: 10\nK: 5\nfrozen: 0,1,2,3,4\n",
        "kernels: 2,2,3\nN: 12\nK: 6\n",
        "N: 12\nkernels: 2,2,3\nK: 6\nfrozen: 0,1,2,3,4,6\n",
        "kernels: 2,2,x\nN: 12\nK: 6\nfrozen: 0,1,2,3,4,6\n",
    ],
)
def test_code_file_rejects_inconsistent(text):
    with pytest.raises(CodeFileError):
        parse_code_file(text)
