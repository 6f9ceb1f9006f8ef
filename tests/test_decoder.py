"""SC decoder: scheduling, partial-sum propagation, counters, oracles."""

import numpy as np
import pytest

from mkpolar import (
    LLR_MAX,
    CodeSpec,
    LengthMismatch,
    NonFiniteInput,
    allocate,
    channel_permutation,
    decode,
    decode_batch,
    encode,
    estimate_bit,
    exact_sc_oracle_llr,
    ingest_channel_llrs,
    llr_phase,
    ps_phase,
    validate_kernel,
)
from mkpolar.decoder import schedule_of
from reference_sc import all_kernel_sequences, textbook_sc_decode

CODE_223 = CodeSpec((2, 2, 3))


def noiseless_llrs(x):
    return LLR_MAX * (1.0 - 2.0 * np.asarray(x, dtype=np.float64))


def test_ingest_uses_digit_reversal():
    mem = allocate(CODE_223)
    llrs = np.arange(12, dtype=np.float64)
    ingest_channel_llrs(mem, CODE_223, llrs)
    assert np.array_equal(
        mem.llr[0], [0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11]
    )


def test_llr_phase_refresh_schedule():
    mem = allocate(CODE_223)
    ingest_channel_llrs(mem, CODE_223, np.ones(12))
    llr_phase(mem, CODE_223, 0)
    assert mem.llr_updates.tolist() == [1, 1, 1]
    bit = estimate_bit(mem, CODE_223, 0)
    ps_phase(mem, CODE_223, 0, bit)
    llr_phase(mem, CODE_223, 1)
    # start_stage(1) = 3: only the innermost stage is refreshed
    assert mem.llr_updates.tolist() == [1, 1, 2]
    ps_phase(mem, CODE_223, 1, estimate_bit(mem, CODE_223, 1))
    llr_phase(mem, CODE_223, 2)
    ps_phase(mem, CODE_223, 2, estimate_bit(mem, CODE_223, 2))
    llr_phase(mem, CODE_223, 3)
    # start_stage(3) = 2: stages 2 and 3 refresh, stage 1 does not
    assert mem.llr_updates.tolist() == [1, 2, 4]


@pytest.mark.parametrize("u0", [0, 1])
@pytest.mark.parametrize("u1", [0, 1])
def test_ps_phase_hand_trace_2x2(u0, u1):
    code = CodeSpec((2, 2))
    mem = allocate(code)
    ps_phase(mem, code, 0, u0)
    assert mem.ps[1][0, 0] == u0
    assert mem.ps_propagations.tolist() == [0, 0]
    ps_phase(mem, code, 1, u1)
    # completed stage-2 pair re-encodes through the kernel into column 0
    assert mem.ps[1][0, 1] == u1
    assert mem.ps[0][:, 0].tolist() == [u0 ^ u1, u1]
    assert mem.ps_propagations.tolist() == [0, 1]


def test_ps_phase_propagates_encoded_subblock():
    # After the first half of the inputs is decided, the stage-1 matrix
    # column 0 must hold that sub-block re-encoded by the inner kernels,
    # stored in the digit-reversed slot order of the sub-problem.
    rng = np.random.default_rng(7)
    u = rng.integers(0, 2, 12, dtype=np.uint8)
    llrs = noiseless_llrs(encode(CODE_223, u))
    mem = allocate(CODE_223)
    ingest_channel_llrs(mem, CODE_223, llrs)
    for i in range(6):
        llr_phase(mem, CODE_223, i)
        ps_phase(mem, CODE_223, i, estimate_bit(mem, CODE_223, i))
    assert np.array_equal(mem.decisions[:6], u[:6])
    sub = encode(CodeSpec((2, 3)), u[:6])
    perm = channel_permutation((2, 3))
    assert np.array_equal(mem.ps[0][:, 0][perm], sub)


def test_decode_validation():
    with pytest.raises(LengthMismatch):
        decode(CODE_223, np.zeros(11))
    bad = np.zeros(12)
    bad[3] = np.inf
    with pytest.raises(NonFiniteInput):
        decode(CODE_223, bad)
    bad[3] = np.nan
    with pytest.raises(NonFiniteInput):
        decode(CODE_223, bad)


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_decode_batch_rows_equal_single_decodes(mode):
    # Every ordering up to N = 72, random and noiseless frames, with a
    # frozen set so that decisions feed back into later bits.
    rng = np.random.default_rng(31)
    for bases in all_kernel_sequences(72):
        n = int(np.prod(bases))
        frozen = rng.choice(n, n // 2, replace=False)
        code = CodeSpec(bases, frozen)
        u = np.zeros((3, n), dtype=np.uint8)
        u[:, list(code.info)] = rng.integers(0, 2, (3, code.K))
        llrs = np.vstack([rng.uniform(-4, 4, (4, n)), noiseless_llrs(encode(code, u))])
        batch = decode_batch(code, llrs, mode)
        assert batch.u_hat.shape == batch.final_llrs.shape == (7, n)
        for f in range(7):
            single = decode(code, llrs[f], mode)
            assert np.array_equal(batch.u_hat[f], single.u_hat), (bases, f)
            assert np.abs(batch.final_llrs[f] - single.final_llrs).max() <= 1e-12
        assert np.array_equal(batch.u_hat[4:], u)
        assert batch.stats.llr_updates.tolist() == single.stats.llr_updates.tolist()


def test_decode_batch_validation():
    with pytest.raises(LengthMismatch):
        decode_batch(CODE_223, np.zeros(12))
    with pytest.raises(LengthMismatch):
        decode_batch(CODE_223, np.zeros((2, 11)))
    bad = np.zeros((2, 12))
    bad[1, 3] = np.nan
    with pytest.raises(NonFiniteInput):
        decode_batch(CODE_223, bad)
    with pytest.raises(ValueError):
        decode_batch(CODE_223, np.zeros((2, 12)), "fast")
    empty = decode_batch(CODE_223, np.zeros((0, 12)))
    assert empty.u_hat.shape == empty.final_llrs.shape == (0, 12)


def test_schedule_is_shared_by_kernel_contents():
    # Codes built afresh, with any frozen set, reuse one schedule, while
    # a different kernel of the same size gets its own.
    assert schedule_of(CodeSpec((2, 3), (0,))) is schedule_of(CodeSpec((2, 3), (1, 4)))
    t3 = validate_kernel([[1, 1, 1], [1, 0, 1], [0, 1, 1]])
    assert schedule_of(CodeSpec((2, t3))) is schedule_of(CodeSpec((2, 3)))
    other = validate_kernel([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert schedule_of(CodeSpec((2, other))) is not schedule_of(CodeSpec((2, 3)))


def test_decode_all_zero_llrs_ties_to_zero():
    res = decode(CODE_223, np.zeros(12))
    assert not res.u_hat.any()
    assert np.array_equal(res.final_llrs, np.zeros(12))


@pytest.mark.parametrize("mode", ["exact", "minsum"])
@pytest.mark.parametrize(
    "bases,frozen",
    [
        ((2,), ()),
        ((3,), (0,)),
        ((2, 3), (0, 1)),
        ((3, 2), (0, 1, 2)),
        ((2, 2, 3), (0, 1, 2, 3, 4, 6)),
        ((3, 3, 2), ()),
    ],
)
def test_noiseless_round_trip(bases, frozen, mode):
    code = CodeSpec(bases, frozen)
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = np.zeros(code.N, dtype=np.uint8)
        u[list(code.info)] = rng.integers(0, 2, code.K)
        res = decode(code, noiseless_llrs(encode(code, u)), mode)
        assert np.array_equal(res.u_hat, u)


@pytest.mark.parametrize(
    "bases", [(2, 2), (3, 2), (2, 3), (2, 2, 3), (3, 2, 2), (2, 2, 2, 2)]
)
def test_decision_llrs_match_exhaustive_marginal(bases):
    # Every decision LLR must equal the exact marginal computed by brute
    # force over all completions, conditioned on the decoder's own path.
    code = CodeSpec(bases)
    rng = np.random.default_rng(13)
    for _ in range(10):
        llrs = rng.uniform(-3, 3, code.N)
        res = decode(code, llrs)
        for i in range(code.N):
            want = exact_sc_oracle_llr(code, llrs, i, res.u_hat[:i])
            assert res.final_llrs[i] == pytest.approx(want, abs=1e-9)


def test_all_frozen_decode_is_the_genie_pass():
    # Decoding the all-frozen code forces every decision to the true 0,
    # which is the genie-aided pass of Monte-Carlo construction: its
    # decision LLRs argue for 1 exactly where the exhaustive marginal,
    # conditioned on an all-zero prefix, does.
    code = CodeSpec((2, 3, 2), range(12))
    rng = np.random.default_rng(17)
    zeros = np.zeros(code.N, dtype=np.uint8)
    for _ in range(10):
        llrs = rng.uniform(-3, 3, code.N)
        errors = decode(code, llrs).final_llrs < 0
        for i in range(code.N):
            want = exact_sc_oracle_llr(code, llrs, i, zeros[:i]) < 0
            assert errors[i] == want


def test_all_frozen_noiseless_decode_is_error_free():
    code = CodeSpec((2, 2, 3), range(12))
    assert not (decode(code, np.full(12, LLR_MAX)).final_llrs < 0).any()


def cumulative_products(bases):
    out = []
    acc = 1
    for p in bases:
        acc *= p
        out.append(acc)
    return out


@pytest.mark.parametrize(
    "bases", [(2, 2, 3), (3, 2), (2,), (3, 3), (2, 3, 2, 3), (2, 2, 2, 2, 2)]
)
def test_counter_laws(bases):
    code = CodeSpec(bases)
    rng = np.random.default_rng(19)
    res = decode(code, rng.uniform(-3, 3, code.N))
    stats = res.stats
    prods = cumulative_products(bases)
    assert stats.llr_updates.tolist() == prods
    want_props = [0] + [prods[j - 2] - 1 for j in range(2, len(bases) + 1)]
    assert stats.ps_propagations.tolist() == want_props
    for j, p in enumerate(bases, start=1):
        before = 1 if j == 1 else prods[j - 2]
        reads = [(p - 1 - c) * before for c in range(p)]
        writes = [before - (1 if c == p - 1 else 0) for c in range(p)]
        assert stats.ps_reads[j - 1].tolist() == reads
        assert stats.ps_writes[j - 1].tolist() == writes


def test_total_updates_all_binary():
    for s in range(1, 8):
        code = CodeSpec((2,) * s)
        res = decode(code, np.zeros(code.N))
        assert int(res.stats.llr_updates.sum()) == 2 * code.N - 2


def test_stage_one_final_column_never_touched():
    for bases in [(2, 2), (2, 2, 3), (3, 2, 2), (3, 3)]:
        code = CodeSpec(bases)
        rng = np.random.default_rng(23)
        res = decode(code, rng.uniform(-4, 4, code.N))
        assert res.stats.ps_reads[0][bases[0] - 1] == 0
        assert res.stats.ps_writes[0][bases[0] - 1] == 0


@pytest.mark.parametrize("mode", ["exact", "minsum"])
@pytest.mark.parametrize("bases,frozen", [((2, 2, 2), (0, 1)), ((2, 2, 2, 2), (0, 1, 2, 4, 8))])
def test_matches_textbook_binary_sc(bases, frozen, mode):
    # Inputs are kept small enough that intermediate LLRs provably stay
    # below the saturation cap, so the unclipped reference and the
    # clipped decoder see identical values.
    code = CodeSpec(bases, frozen)
    rng = np.random.default_rng(29)
    for _ in range(100):
        llrs = rng.uniform(-1.8, 1.8, code.N)
        res = decode(code, llrs, mode)
        want = textbook_sc_decode(llrs, np.asarray(code.frozen_mask), mode)
        assert np.array_equal(res.u_hat, want)


def test_decode_returns_copies():
    res1 = decode(CODE_223, np.ones(12))
    res2 = decode(CODE_223, -np.ones(12))
    assert res1.u_hat.sum() == 0 and res2.u_hat.sum() > 0
    res2.u_hat[0] = 9
    assert res1.u_hat[0] == 0
