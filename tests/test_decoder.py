"""SC decoder: scheduling, partial-sum propagation, counters, oracles."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mkpolar import (
    LLR_MAX,
    CodeSpec,
    KernelMatrix,
    LengthMismatch,
    NonFiniteInput,
    SimConfig,
    allocate,
    channel_permutation,
    construct_frozen_mc,
    decode,
    decode_batch,
    encode,
    simulate,
)
import mkpolar.decoder
from mkpolar.decoder import DecodeStats, _Program
from oracles import (
    DECIDE, PROPAGATE, REFRESH, exact_sc_oracle_llr, row_major_kernel_update, schedule_ops, start_stage,
    trailing_max_run,
)
from reference_sc import all_kernel_sequences, textbook_sc_decode

CODE_223 = CodeSpec((2, 2, 3))
# a custom 3x3 kernel and a kernel of size 4, for the last stage
OTHER = KernelMatrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
K4 = KernelMatrix([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]])
PAPER_CODES = [(2, 2, 3), (2, 2, 2, 3, 3), (2, 2, 2, 2, 3, 3), (2, 2, 2, 2, 2, 2, 2, 3), (2, 2, 3, 3, 3, 3, 3)]
# the frozen sets of the benchmark's decode-paper workload, K = N / 2
PAPER_FROZEN = {tuple(map(int, key.split(","))): frozen for key, frozen in
                json.loads((Path(__file__).parents[1] / "bench" / "frozen_sets.json").read_text()).items()}


def noiseless_llrs(x):
    return LLR_MAX * (1.0 - 2.0 * np.asarray(x, dtype=np.float64))


def program_of(code, frames):
    """The idle program that decode_batch of code on frames frames left in the cache."""
    return mkpolar.decoder._PROGRAMS[mkpolar.decoder._key(code, frames)]


def run_on_memory(code, llrs, mode="exact"):
    """Decode one frame with a freshly bound program; return its memory."""
    program = _Program(code, 1)
    program.run(code, np.asarray(llrs, dtype=np.float64)[None], mode)
    return program.mem


def reference_decode(code, llrs, mode="exact"):
    """The ops of schedule_ops run one by one on a fresh allocate(code, F),
    each REFRESH one call of the block-major kernel update, which shares no
    code with the package. Returns (decisions, decision LLRs)."""
    llrs = np.asarray(llrs, dtype=np.float64)
    mem = allocate(code, len(llrs))
    llr, ps, decisions = mem.llr, mem.ps, mem.decisions
    llr[0][:, code.permutation] = llrs
    final_llrs = np.empty(decisions.shape, dtype=np.float64)
    decision_llrs = llr[-1][:, 0]
    for kind, a, b, kernel in schedule_ops(code):
        if kind == REFRESH:
            target = llr[a]
            groups = llr[a - 1].reshape(target.shape + (kernel.p,))
            update = row_major_kernel_update(kernel.rows, b, groups, ps[a - 1][:, :, :b], mode)
            target[:] = update.reshape(target.shape)
        elif kind == DECIDE:
            final_llrs[:, a] = decision_llrs
            decisions[:, a] = False if code.frozen_mask[a] else decision_llrs < 0
            if b >= 0:
                ps[-1][:, 0, b] = decisions[:, a]
        else:
            target = ps[a - 2][:, :, b]
            target[:] = (ps[a - 1] @ kernel.rows & 1).reshape(target.shape)
    return decisions, final_llrs


def assert_same_as_reference(result, code, llrs, mode, where):
    """Bitwise equality: a tie bit decided differently can change the
    rest of the frame, so no tolerance is safe."""
    decisions, final_llrs = reference_decode(code, np.atleast_2d(llrs), mode)
    shape = np.shape(result.u_hat)
    assert np.array_equal(result.u_hat, decisions.reshape(shape)), where
    assert np.array_equal(result.final_llrs, final_llrs.reshape(shape)), where


def counted_stats(code):
    """DecodeStats counted op by op over schedule_ops(code)."""
    s = code.s
    stats = DecodeStats(
        llr_updates=np.zeros(s, dtype=np.int64),
        ps_propagations=np.zeros(s, dtype=np.int64),
        ps_reads=[np.zeros(p, dtype=np.int64) for p in code.bases],
        ps_writes=[np.zeros(p, dtype=np.int64) for p in code.bases],
    )
    for kind, a, b, _ in schedule_ops(code):
        if kind == REFRESH:
            stats.llr_updates[a - 1] += 1
            stats.ps_reads[a - 1][:b] += 1
        elif kind == DECIDE:
            if b >= 0:
                stats.ps_writes[s - 1][b] += 1
        else:
            stats.ps_writes[a - 2][b] += 1
            stats.ps_propagations[a - 1] += 1
    return stats


def stats_lists(stats):
    """The four counters of a DecodeStats as nested lists, to compare."""
    return (stats.llr_updates.tolist(), stats.ps_propagations.tolist(),
            [c.tolist() for c in stats.ps_reads], [c.tolist() for c in stats.ps_writes])


def ops_per_bit(ops):
    """(refreshed stages, propagated stages) of each bit of a schedule."""
    bits, refreshed = [], []
    for kind, a, _, _ in ops:
        if kind == REFRESH:
            refreshed.append(a)
        elif kind == DECIDE:
            bits.append((refreshed, []))
            refreshed = []
        else:
            bits[-1][1].append(a)
    return bits


def test_ingest_uses_digit_reversal():
    mem = run_on_memory(CODE_223, np.arange(12))
    assert np.array_equal(
        mem.llr[0][0], [0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11]
    )


def test_llr_phase_refresh_schedule():
    bits = ops_per_bit(schedule_ops(CODE_223))
    # bit 0 refreshes every stage; bits 1 and 2, digits (0, 0, 1) and
    # (0, 0, 2), refresh only from their rightmost nonzero digit, stage 3;
    # bit 3, digits (0, 1, 0), refreshes stages 2 and 3, not stage 1
    assert [refreshed for refreshed, _ in bits[:4]] == [[1, 2, 3], [3], [3], [2, 3]]


def test_schedule_follows_start_stage_and_trailing_max_run():
    for bases in all_kernel_sequences(72):
        code = CodeSpec(bases)
        bits = ops_per_bit(schedule_ops(code))
        assert len(bits) == code.N
        for i, (refreshed, propagated) in enumerate(bits):
            assert refreshed == list(range(start_stage(i, bases), code.s + 1)), (bases, i)
            # the innermost completed matrices propagate, except after the
            # last bit, which ends the decode
            run = trailing_max_run(i, bases) if i < code.N - 1 else 0
            assert propagated == list(range(code.s, code.s - run, -1)), (bases, i)


@pytest.mark.parametrize("u0", [0, 1])
@pytest.mark.parametrize("u1", [0, 1])
def test_ps_phase_hand_trace_2x2(u0, u1, monkeypatch):
    code = CodeSpec((2, 2))
    ops = [(kind, a, b) for kind, a, b, _ in schedule_ops(code)]
    assert ops == [
        (REFRESH, 1, 0), (REFRESH, 2, 0), (DECIDE, 0, 0),
        (REFRESH, 2, 1), (DECIDE, 1, 1), (PROPAGATE, 2, 0),
        (REFRESH, 1, 1), (REFRESH, 2, 0), (DECIDE, 2, 0),
        (REFRESH, 2, 1), (DECIDE, 3, -1),
    ]
    u = np.array([u0, u1, 1 - u0, 1 - u1], dtype=np.uint8)
    # Under the look-ahead the whole code is one tail block, which
    # decides into mem.decisions and, being the last block, propagates
    # nothing. With a tail of the last stage alone, the completed first
    # pair is re-encoded through the kernel into column 0 of stage 1.
    # Either way the stage-2 matrix is never written.
    for budget, column in ((1 << 62, [0, 0]), (0, [u0 ^ u1, u1])):
        monkeypatch.setattr(mkpolar.decoder, "LOOKAHEAD_CANDIDATES", budget)
        mem = run_on_memory(code, noiseless_llrs(encode(code, u)))
        assert np.array_equal(mem.decisions[0], u), budget
        assert mem.ps[0][0, :, 0].tolist() == column, budget
        assert not mem.ps[-1].any(), budget


def test_ps_phase_propagates_encoded_subblock():
    # After the first half of the inputs is decided, the stage-1 matrix
    # column 0 must hold that sub-block re-encoded by the inner kernels,
    # stored in the digit-reversed slot order of the sub-problem. It is
    # the only stage-1 column, so it keeps that value to the end.
    rng = np.random.default_rng(7)
    u = rng.integers(0, 2, 12, dtype=np.uint8)
    mem = run_on_memory(CODE_223, noiseless_llrs(encode(CODE_223, u)))
    assert np.array_equal(mem.decisions[0], u)
    sub = encode(CodeSpec((2, 3)), u[:6])
    perm = channel_permutation((2, 3))
    assert np.array_equal(mem.ps[0][0, :, 0][perm], sub)


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
    # finite, but large enough to overflow a kernel metric into NaN
    for big in (1.7e308, -1e301):
        bad[3] = big
        with pytest.raises(NonFiniteInput):
            decode(CODE_223, bad)
    # the limit itself decodes without a warning
    for bases in ((3,), (2, 2, 3), (3, 3, 2)):
        code = CodeSpec(bases)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = decode(code, np.full(code.N, 1e300))
        assert not res.u_hat.any() and np.isfinite(res.final_llrs).all(), bases


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


def mixed_frames(code, rng):
    """Seven frames: four random, one noiseless, one all-zero (every
    decision a tie) and one close to zero."""
    n = code.N
    u = np.zeros(n, dtype=np.uint8)
    u[list(code.info)] = rng.integers(0, 2, code.K)
    return np.vstack([
        rng.uniform(-4, 4, (4, n)),
        noiseless_llrs(encode(code, u)),
        np.zeros(n),
        rng.normal(0.0, 0.1, n),
    ])


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_bound_program_matches_reference_executor(mode):
    # every ordering up to N = 72; decode_batch (F = 7) and decode (F = 1)
    # alternate, so each code's program is also rebound for a new F
    rng = np.random.default_rng(37)
    for bases in all_kernel_sequences(72):
        n = int(np.prod(bases))
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        llrs = mixed_frames(code, rng)
        assert_same_as_reference(decode_batch(code, llrs, mode), code, llrs, mode, bases)
        for f in range(len(llrs)):
            assert_same_as_reference(decode(code, llrs[f], mode), code, llrs[f], mode, (bases, f))
    # Batches at the entry cap (5461 frames at N = 12, 455 at N = 144),
    # where a refresh updates thousands of blocks per numpy call: the
    # rows must still be what single-frame decodes give.
    for bases in ((2, 2, 3), (2, 2, 2, 2, 3, 3)):
        n = int(np.prod(bases))
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        frames = mkpolar.decoder.BATCH_LLR_ENTRIES // n
        llrs = np.vstack([mixed_frames(code, rng) for _ in range(-(-frames // 7))])[:frames]
        llrs *= rng.uniform(0.05, 1.0, (frames, 1))
        batch = decode_batch(code, llrs, mode)
        for f in np.unique(np.linspace(0, frames - 1, 64).astype(int)):
            single = decode(code, llrs[f], mode)
            assert np.array_equal(batch.u_hat[f], single.u_hat), (bases, f)
            assert np.array_equal(batch.final_llrs[f], single.final_llrs), (bases, f)
    # A custom 3x3 kernel at the last stage, after two 2x2 stages and as
    # the only stage, where the leaf block reads the channel vector.
    rng = np.random.default_rng(38)
    for bases in ((2, 2, OTHER), (OTHER,)):
        n = CodeSpec(bases).N
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        llrs = mixed_frames(code, rng)
        assert_same_as_reference(decode_batch(code, llrs, mode), code, llrs, mode, bases)
        for f in range(len(llrs)):
            assert_same_as_reference(decode(code, llrs[f], mode), code, llrs[f], mode, (bases, f))


@pytest.fixture(params=["look-ahead", "per-leaf"])
def binding(request, monkeypatch):
    """Binds the tail as the last two stages (the look-ahead) at every
    F, or as the last stage alone, by the budget alone."""
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    budget = 1 << 62 if request.param == "look-ahead" else 0
    monkeypatch.setattr(mkpolar.decoder, "LOOKAHEAD_CANDIDATES", budget)
    return request.param


def test_lookahead_budget_counts_tail_candidates():
    # F * (2^P - 1) < LOOKAHEAD_CANDIDATES, P the bits of a tail block:
    # 63 per frame for a (2,3) tail, 511 for (3,3), 15 for (2,2); never
    # for a single stage, and never for a size-8 leaf (65535 per frame)
    cases = [((2, 2, 3), 40, True), ((2, 2, 3), 41, False), ((2, 2, 2, 2, 3, 3), 5, True),
             ((2, 2, 2, 2, 3, 3), 6, False), ((2, 2, 2, 2, 2, 2), 170, True), ((3,), 1, False),
             ((2, KernelMatrix(np.tril(np.ones((8, 8), np.uint8)))), 1, False)]
    for bases, frames, lookahead in cases:
        assert _Program(CodeSpec(bases), frames).lookahead == lookahead, (bases, frames)


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_both_tail_bindings_match_reference_executor(binding, mode):
    # every ordering up to N = 72 at F = 7 and F = 1, then batches at the
    # entry cap, each checked whole against the reference executor
    rng = np.random.default_rng(59)
    for bases in all_kernel_sequences(72):
        n = int(np.prod(bases))
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        llrs = mixed_frames(code, rng)
        assert_same_as_reference(decode_batch(code, llrs, mode), code, llrs, mode, (binding, bases))
        for f in range(len(llrs)):
            assert_same_as_reference(decode(code, llrs[f], mode), code, llrs[f], mode, (binding, bases, f))
        for frames in (len(llrs), 1):
            program = program_of(code, frames)
            assert program.lookahead == (binding == "look-ahead" and len(bases) > 1), (bases, frames)
    for bases in ((2, 2, 3), (2, 2, 2, 2, 3, 3)):
        n = int(np.prod(bases))
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        frames = mkpolar.decoder.BATCH_LLR_ENTRIES // n
        llrs = np.vstack([mixed_frames(code, rng) for _ in range(-(-frames // 7))])[:frames]
        llrs *= rng.uniform(0.05, 1.0, (frames, 1))
        assert_same_as_reference(decode_batch(code, llrs, mode), code, llrs, mode, (binding, bases))


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_tail_walk_matches_reference_executor(binding, mode):
    # Each tail block is walked down its decided candidates. Bits 1 and 4
    # lie inside a block of 3 bits and of 6: frozen there, an LLR that
    # argues for 1 must decide 0 and the walk follow the 0 branch. Then
    # blocks all frozen next to blocks with none frozen, and custom leaf
    # kernels: OTHER, and K4, whose size-4 leaf (2, K4) walks under the
    # look-ahead; a size-4 kernel agrees with the reference to rounding.
    rng = np.random.default_rng(73)
    cases = [((2, 2, 3), (1, 4, 7, 10)), ((2, 3, 3), (1, 4, 10, 13, 16)), ((2, 2, 3), range(6)),
             ((3, 2, 3), range(9, 18)), ((2, 2, OTHER), (1, 4, 6, 7, 8)), ((OTHER,), (1,)), ((2, K4), (1, 4, 6))]
    for bases, frozen in cases:
        code = CodeSpec(bases, frozen)
        llrs = np.vstack([rng.normal(0.0, 2.0, (33, code.N)), mixed_frames(code, rng)])
        decisions, final_llrs = reference_decode(code, llrs, mode)
        where = (binding, bases, frozen)
        inside = [i for i in (1, 4) if i in frozen]
        if inside:
            assert (final_llrs[:, inside] < 0).any() and not decisions[:, inside].any(), where
        for run, rows in ((decode_batch, llrs), (decode, llrs[0]), (decode, llrs[-2])):
            result = run(code, rows, mode)
            if K4 in bases:
                want_u, want_llrs = reference_decode(code, np.atleast_2d(rows), mode)
                assert np.array_equal(np.atleast_2d(result.u_hat), want_u), where
                assert np.abs(np.atleast_2d(result.final_llrs) - want_llrs).max() <= 1e-12, where
            else:
                assert_same_as_reference(result, code, rows, mode, where)
        program = program_of(code, len(llrs))
        assert program.lookahead == (binding == "look-ahead" and len(bases) > 1), where


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_tail_walk_on_each_side_of_the_lookahead_budget(mode, monkeypatch):
    # 40 frames of (2,2,3) walk 6-bit blocks of the look-ahead, 41 frames
    # 3-bit blocks of the last stage alone.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    rng = np.random.default_rng(79)
    code = CodeSpec((2, 2, 3), (1, 4, 6, 7))
    for frames, lookahead in ((40, True), (41, False)):
        llrs = np.vstack([mixed_frames(code, rng) for _ in range(6)])[:frames]
        assert_same_as_reference(decode_batch(code, llrs, mode), code, llrs, mode, frames)
        assert program_of(code, frames).lookahead == lookahead


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_tail_never_writes_the_last_stage(binding, mode):
    # The tail decides into mem.decisions, so the stage-s vector and
    # partial-sum matrix keep whatever they held, and nothing reads them.
    rng = np.random.default_rng(67)
    for bases in all_kernel_sequences(72):
        code = CodeSpec(bases)
        for frames in (1, 7):
            program = _Program(code, frames)
            mem, s = program.mem, code.s
            mem.llr[s].fill(-3.5)
            mem.ps[s - 1].fill(0xA5)
            llrs = rng.normal(1.0, 2.0, (frames, code.N))
            program.run(code, llrs, mode)
            where = (binding, bases, frames)
            assert (mem.llr[s] == -3.5).all() and (mem.ps[s - 1] == 0xA5).all(), where
            assert np.array_equal(mem.decisions, reference_decode(code, llrs, mode)[0]), where


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_bound_program_matches_reference_executor_at_972(mode):
    # An exact-mode variant that summed with np.logaddexp.reduce flipped
    # a tie bit of this frame (|LLR| = 4.4e-16), and the frame's decision
    # LLRs then diverged by up to 80.
    # Single-frame decodes bind the last two stages as a look-ahead tail.
    code = CodeSpec((2, 2, 3, 3, 3, 3, 3), range(0, 972, 2))
    z = np.random.default_rng(1).standard_normal(code.N)
    llrs = np.clip(2.0 * (1.0 + 0.8 * z) / 0.64, -LLR_MAX, LLR_MAX)
    assert_same_as_reference(decode(code, llrs, mode), code, llrs, mode, mode)
    assert program_of(code, 1).lookahead


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_single_frame_decodes_match_reference_executor_at_144_and_384(mode):
    # The benchmark times single-frame decodes of every paper code; the
    # tests above reach N = 72 at every F and N = 972 by one frame.
    rng = np.random.default_rng(83)
    for bases in ((2, 2, 2, 2, 3, 3), (2, 2, 2, 2, 2, 2, 2, 3)):
        n = int(np.prod(bases))
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        for f, llrs in enumerate(mixed_frames(code, rng)):
            assert_same_as_reference(decode(code, llrs, mode), code, llrs, mode, (bases, f))
        assert program_of(code, 1).lookahead


def sub_code(bases, j):
    """The bits whose first j digits are (0, ..., 0, 1): a sub-code with
    root stage j, disjoint from that of every other j."""
    size = CodeSpec(bases[j:]).N
    return range(size, 2 * size)


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_folded_programs_match_reference_executor(mode, monkeypatch):
    # All-frozen sub-codes with their root at every stage 1 .. top - 1,
    # the last of them exactly one tail block, the rest of the frozen set
    # at random with bit 0 free, so that no fold holds another; then the
    # all-frozen code, which folds whole at stage 0. At F = 1 and 7 the
    # look-ahead tail is the last two stages, at the cap the last stage
    # alone. Each run folds exactly the largest sub-codes whose root stage
    # is above the tail and whose bits are all frozen or, in the REP nodes
    # that the random rest makes, all but the last, and decodes as the
    # reference executor does.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    rng = np.random.default_rng(97)
    for bases in ((2, 2, 3), (3, 2, 3), (2, 2, 2, 3, 3), (3, 2, 2, OTHER), (2, 2, 2, 2, 3, 3)):
        n = CodeSpec(bases).N
        for frames in (1, 7, mkpolar.decoder.BATCH_LLR_ENTRIES // n):
            top = _Program(CodeSpec(bases), frames).top
            roots = {sub_code(bases, j).start: j for j in range(1, top)}
            rest = rng.choice(np.arange(1, n), n // 3, replace=False)
            folded = {int(i) for j in roots.values() for i in sub_code(bases, j)} | set(rest.tolist())
            for frozen in (folded, range(n)):
                code = CodeSpec(bases, frozen)
                llrs = np.vstack([mixed_frames(code, rng) for _ in range(-(-frames // 7))])[:frames]
                assert_same_as_reference(decode_batch(code, llrs, mode), code, llrs, mode, (bases, frames))
                program = program_of(code, frames)
                mask = code.frozen_mask
                want = {}  # {first bit: root stage}, larger sub-codes first
                for j in range(top):
                    size = CodeSpec(bases[j:]).N
                    for a in range(0, n, size):
                        # all frozen (Rate-0) or all but the last (REP), and in no larger fold
                        inside = any(b <= a < b + CodeSpec(bases[i:]).N for b, i in want.items())
                        if mask[a : a + size - 1].all() and not inside:
                            want[a] = j
                assert program.folds == want, (bases, frames)
                if frozen is folded:
                    assert roots.items() <= want.items(), (bases, frames)
                else:
                    assert want == {0: 0}, (bases, frames)


def rep_frozen_sets(bases, rng):
    """Frozen sets with REP nodes, sub-codes whose bits are all frozen but
    the last: the code as a whole (root 0); sub_code(bases, j) at every root
    stage j >= 1 at once, with the rest at random and bit 0 free, so that no
    node lies in a larger one; and the last sub-code of root 1, which ends
    the code, so that no push follows it."""
    n = CodeSpec(bases).N
    nodes = [sub_code(bases, j) for j in range(1, len(bases))]
    rest = set(rng.choice(np.arange(1, n), n // 3, replace=False).tolist())
    sets = [range(n - 1), rest.difference(*nodes).union(*(node[:-1] for node in nodes))]
    if len(bases) > 1:
        start = n - CodeSpec(bases[1:]).N
        rest = set(rng.choice(np.arange(1, start), start // 3, replace=False).tolist())
        sets.append(rest | set(range(start, n - 1)))
    return sets


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_rep_folds_match_reference_executor(mode, monkeypatch):
    # A REP node folds: the zero-prefix passes form its decision LLRs, one
    # less decides its last bit and, if a push into stage j >= 1 follows,
    # the decision times the last row of T_{j+1} x ... x T_s fills the
    # column, in stage j's entry order: digit-reversed, so with a T3 below
    # the root (last row [0, 1, 1]) the row in natural order decodes wrong.
    # Every ordering up to N = 72 and the paper codes, the latter also with
    # the frozen sets of decode-paper, bit for bit: a capped batch whose
    # rows are Gaussian and tie-prone in turn, checked at its first and
    # last four rows, then those rows at F = 7 and two of them at F = 1.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    rng = np.random.default_rng(101)
    values = np.array([0.0, 0.7, -0.7, 1.3, -1.3, 2.9, -2.9, 40.0, -40.0])
    pushed = set()
    for bases in [*all_kernel_sequences(72), *PAPER_CODES]:
        n = CodeSpec(bases).N
        cap = mkpolar.decoder.BATCH_LLR_ENTRIES // n
        sets = rep_frozen_sets(bases, rng) + ([PAPER_FROZEN[bases]] if bases in PAPER_FROZEN else [])
        folded = set()
        for frozen in sets:
            code = CodeSpec(bases, frozen)
            llrs = rng.normal(1.0, 2.0, (cap, n))
            llrs[1::2] = rng.choice(values, (cap // 2, n))
            rows = np.r_[0:4, cap - 4 : cap]
            want_u, want_llrs = reference_decode(code, llrs[rows], mode)
            capped, batch = decode_batch(code, llrs, mode), decode_batch(code, llrs[rows[:7]], mode)
            got = [(capped.u_hat[rows], capped.final_llrs[rows], slice(None)), (batch.u_hat, batch.final_llrs, slice(7))]
            for k in (0, 1):
                single = decode(code, llrs[rows[k]], mode)
                got.append((single.u_hat, single.final_llrs, k))
            for u_hat, final_llrs, k in got:
                where = (bases, code.K, k)
                assert np.array_equal(u_hat, want_u[k]) and np.array_equal(final_llrs, want_llrs[k]), where
            for frames in (1, 7, cap):
                program = program_of(code, frames)
                folded |= {j for a, j in program.folds.items() if a in program.reps}
                pushed |= {tuple(row.tolist()) for row in program.pushed.values()}
        # REP nodes folded at every root stage above the tail of the cap
        assert set(range(_Program(CodeSpec(bases), cap).top)) <= folded, (bases, folded)
    # with T3, T3 x T2 and T2 x T3 below the root, in reverse kernel order
    assert {(0, 1, 1), (0, 1, 1, 0, 1, 1), (0, 0, 1, 1, 1, 1)} <= pushed


def test_rep_and_rate0_folds_of_one_node_alternate(monkeypatch):
    # The same node all frozen (Rate-0), then with its last bit free (REP),
    # then all frozen again: the folds are the same {first bit: root stage},
    # and each code runs on a program of its own, which decides the REP's
    # last bit or leaves it 0.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    rng = np.random.default_rng(103)
    for bases in ((2, 2, 3), (2, 3, 2, 3), (3, 2, 2, 2)):
        n = CodeSpec(bases).N
        node = sub_code(bases, 1)
        rate0 = CodeSpec(bases, node)
        rep = CodeSpec(bases, node[:-1])
        for frames in (1, 7):
            llrs = rng.normal(-1.0, 2.0, (frames, n))
            for code in (rate0, rep, rate0, rep):
                assert_same_as_reference(decode_batch(code, llrs), code, llrs, "exact", (bases, frames, code.K))
                program = program_of(code, frames)
                assert program.folds == {node.start: 1}, (bases, frames)
                assert program.reps == ({node.start} if code is rep else set()), (bases, frames)
            assert program_of(rate0, frames) is not program_of(rep, frames), (bases, frames)


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_programs_bind_from_the_sub_code_tree(mode, monkeypatch):
    # A program binds by a walk of the sub-code tree: every ordering up to
    # N = 72 and the paper codes decode as the reference executor runs the
    # flat ops of schedule_ops, with random, REP-rich and decode-paper
    # frozen sets, at F = 7 (the look-ahead tail of the last two stages) and
    # at the cap (the last stage alone), checked at the first four and last
    # three rows.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    rng = np.random.default_rng(109)
    for bases in [*all_kernel_sequences(72), *PAPER_CODES]:
        n = CodeSpec(bases).N
        sets = [rng.choice(n, n // 2, replace=False), rep_frozen_sets(bases, rng)[1], PAPER_FROZEN.get(bases, ())]
        for frozen in sets:
            code = CodeSpec(bases, frozen)
            for frames in (7, mkpolar.decoder.BATCH_LLR_ENTRIES // n):
                llrs, rows = rng.normal(1.0, 2.0, (frames, n)), np.r_[0:4, frames - 3 : frames]
                result = decode_batch(code, llrs, mode)
                want_u, want_llrs = reference_decode(code, llrs[rows], mode)
                where = (bases, code.K, frames)
                assert np.array_equal(result.u_hat[rows], want_u), where
                assert np.array_equal(result.final_llrs[rows], want_llrs), where
                assert result.stats.llr_updates.tolist() == counted_stats(code).llr_updates.tolist()


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_size_four_kernels_agree_to_rounding(mode):
    # A kernel of size 4 sums 4 terms per metric and up to 8 per
    # reduction, which numpy and BLAS may add in another order in
    # another layout: decisions must agree, and LLRs up to rounding.
    rng = np.random.default_rng(40)
    for bases in ((2, K4), (K4,), (3, K4), (K4, 2)):
        n = CodeSpec(bases).N
        code = CodeSpec(bases, rng.choice(n, n // 2, replace=False))
        llrs = mixed_frames(code, rng)
        decisions, final_llrs = reference_decode(code, llrs, mode)
        batch = decode_batch(code, llrs, mode)
        assert np.array_equal(batch.u_hat, decisions), bases
        assert np.abs(batch.final_llrs - final_llrs).max() <= 1e-12, bases
        for f in range(len(llrs)):
            single = decode(code, llrs[f], mode)
            assert np.array_equal(single.u_hat, batch.u_hat[f]), (bases, f)
            assert np.abs(single.final_llrs - batch.final_llrs[f]).max() <= 1e-12, (bases, f)


# (exact, minsum) steps of each paper code's single-frame program
PAPER_STEPS = {(2, 2, 3): (85, 56), (2, 2, 2, 3, 3): (463, 316), (2, 2, 2, 2, 3, 3): (949, 650),
               (2, 2, 2, 2, 2, 2, 2, 3): (3361, 2278), (2, 2, 3, 3, 3, 3, 3): (6091, 4200)}
# the same with the frozen sets of decode-paper
FOLDED_STEPS = {(2, 2, 3): (72, 43), (2, 2, 2, 3, 3): (376, 243), (2, 2, 2, 2, 3, 3): (825, 540),
                (2, 2, 2, 2, 2, 2, 2, 3): (2508, 1635), (2, 2, 3, 3, 3, 3, 3): (4518, 2991)}


@pytest.mark.parametrize("bases", PAPER_CODES)
def test_numpy_calls_per_bit_on_the_paper_codes(bases):
    # Every stage above the tail runs one candidate pass per kernel block
    # and then at most three calls per refresh; the look-ahead tail runs
    # two passes per tail block, one less per leaf, three or four calls
    # for the successors, P - 1 takes, a take and a less: 6.27-8.75 calls
    # per bit (exact) and 4.32-5.93 (minsum) on these codes, where a
    # matmul, a take and a less per bit spent 7.55-10.08 and 5.60-7.26,
    # one pass per leaf block 11.1-12.9 and 7.5-8.9, the per-op program
    # 16.8-18.9 and 12.2-13.9, and a per-bit update rule above the last
    # stage 11.8-13.9 and 8.3-9.9. The counts are pinned: a change that
    # makes calls cheaper must not make more of them.
    code = CodeSpec(bases)
    program = _Program(code, 1)
    assert program.lookahead
    steps = len(program.steps("exact")), len(program.steps("minsum"))
    assert steps == PAPER_STEPS[bases]
    assert steps[0] <= 8.8 * code.N and steps[1] <= 6.0 * code.N
    # The frozen sets of decode-paper fold their Rate-0 and REP sub-codes
    # above the tail: 4.6-6.5 calls per bit (exact) and 3.1-4.3 (minsum),
    # 13-29% fewer steps, where Rate-0 folds alone made 4.9-6.7 and 3.3-4.4
    # at N >= 72, 13-26% fewer, and none at (2,2,3).
    program = _Program(CodeSpec(bases, PAPER_FROZEN[bases]), 1)
    assert (len(program.steps("exact")), len(program.steps("minsum"))) == FOLDED_STEPS[bases]


@pytest.mark.parametrize("bases", PAPER_CODES)
def test_program_memory_against_the_paper_layout(bases):
    # A program bound in both modes holds its candidate tables, work
    # arrays, final-LLR rows and index arrays next to the paper's stage
    # memory. At F = 1 the look-ahead tail adds its leaf table (2 (2^P - 1)
    # floats, for P bits per tail block), vectors, gather index and the
    # larger work arrays of its leaf pass, and the walk its decided
    # candidates, thresholds per leaf row and walked entries: measured
    # 7.4-26.1x, against 7.1-8.9x before the look-ahead. Capped batches
    # decide the last stage alone: 5.8-6.2x. A run ingests through the
    # code's channel order, so the program holds none. Under the frozen
    # sets of decode-paper the folds work in the tables and work arrays
    # the program holds, and add the digit order of each root stage.
    for code in (CodeSpec(bases), CodeSpec(bases, PAPER_FROZEN[bases])):
        for frames, bound in ((1, 26.5), (mkpolar.decoder.BATCH_LLR_ENTRIES // code.N, 6.3)):
            program = _Program(code, frames)
            for mode in ("exact", "minsum"):
                program.run(code, np.zeros((frames, code.N)), mode)
            mem = allocate(code, frames)
            paper = sum(x.nbytes for x in mem.llr + mem.ps + [mem.decisions])
            assert program.nbytes <= bound * paper, (bases, code.K, frames, program.nbytes / paper)
            orders = (code.permutation, code.channel_order)
            assert not any(x is order for x in vars(program).values() for order in orders)


def uncharged_step_arrays(program, code):
    """The base arrays that the program's bound steps use, as arguments or
    as the array of a bound method, and that _charge does not count: each
    one is charged again as if the program held it too, and counts as
    uncharged if that raises nbytes. Module and kernel constants belong to
    no program, and the gather weights, at most two int64, are charged
    with their step (STEP_BYTES)."""
    shared = [mkpolar.kernels._ONE, mkpolar.kernels._LO, mkpolar.kernels._HI]
    shared += [x for k in code.kernels for x in (k.rows, k._word_metrics)]
    shared = {id(x if x.base is None else x.base) for x in shared}
    used = {}
    for steps in program._bound.values():
        for fn, args in steps:
            for x in (getattr(fn, "__self__", None), *args):
                if isinstance(x, np.ndarray):
                    x = x if x.base is None else x.base
                    if id(x) not in shared and x.nbytes > 16:
                        used[id(x)] = x
    held, uncharged = program.nbytes, []
    for x in used.values():
        program.probe = x
        mkpolar.decoder._charge(program)
        if program.nbytes != held:
            uncharged.append(x.nbytes)
    vars(program).pop("probe", None)
    mkpolar.decoder._charge(program)
    return uncharged


@pytest.mark.parametrize("bases", PAPER_CODES)
def test_bound_steps_use_only_charged_arrays(bases):
    # A work array that the pool outgrows after a step is bound on it stays
    # alive through that step: with steps bound before the pool was sized,
    # a single-frame (2,2,2,3,3) program kept 1728 B that its charge did
    # not count.
    for code in (CodeSpec(bases), CodeSpec(bases, PAPER_FROZEN[bases])):
        for frames in (1, mkpolar.decoder.BATCH_LLR_ENTRIES // code.N):
            for modes in (("exact", "minsum"), ("minsum", "exact")):
                program = _Program(code, frames)
                for mode in modes:
                    program.run(code, np.zeros((frames, code.N)), mode)
                    assert uncharged_step_arrays(program, code) == [], (code.K, frames, modes, mode)


@pytest.mark.parametrize("bases", PAPER_CODES)
def test_parity_masks_run_unbuffered(bases):
    # With a 0-d mask on a 1-D view of its output, or on an output that is
    # contiguous in some order, numpy ands without its buffered iterator,
    # which allocates: at F = 1 no bitwise_and step of a paper code's
    # program allocates, where a 1-element mask made every one of them do so.
    for code in (CodeSpec(bases), CodeSpec(bases, PAPER_FROZEN[bases])):
        program = _Program(code, 1)
        for mode in ("exact", "minsum"):
            program.run(code, np.zeros((1, code.N)), mode)
            ands = [args for fn, args in program.steps(mode) if fn is np.bitwise_and]
            assert ands or code.K < code.N, mode  # (2,2,3) under its frozen set pushes no product
            for args in ands:
                tracemalloc.start()
                try:
                    np.bitwise_and(*args)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak == 0, (code.K, mode, [a.shape for a in args], peak)


def test_warm_decode_allocates_little():
    # A warm decode allocates its results and numpy's buffers for calls
    # whose operands are broadcast or strided unlike their output: about
    # 16.5 KiB at N = 972, most of it one broadcast subtract's 16.4 KB. A
    # candidate pass that wrote its differences from strided rows into a
    # separate table made numpy buffer more, and the peak read 24.4 KiB.
    code = CodeSpec((2, 2, 3, 3, 3, 3, 3), range(0, 972, 2))
    llrs = np.random.default_rng(53).normal(2.0, 2.0, code.N)
    decode(code, llrs)
    tracemalloc.start()
    try:
        decode(code, llrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 1024


def test_decode_results_are_fresh_arrays():
    code = CodeSpec((2, 2, 3), (0, 1, 2))
    rng = np.random.default_rng(41)
    for run, frames in ((decode, 1), (decode_batch, 3)):
        shape = (12,) if run is decode else (frames, 12)
        first = run(code, rng.uniform(-3, 3, shape))
        kept = (first.u_hat.copy(), first.final_llrs.copy(), first.stats.copy())
        second = run(code, rng.uniform(-3, 3, shape))
        # the second decode leaves the first result alone
        assert np.array_equal(first.u_hat, kept[0])
        assert np.array_equal(first.final_llrs, kept[1])
        assert first.stats.llr_updates.tolist() == kept[2].llr_updates.tolist()
        mem = program_of(code, frames).mem
        arrays = lambda r: [r.u_hat, r.final_llrs, r.stats.llr_updates, r.stats.ps_propagations,
                            *r.stats.ps_reads, *r.stats.ps_writes]
        for x in arrays(first):
            for y in arrays(second) + mem.llr + mem.ps + [mem.decisions]:
                assert not np.shares_memory(x, y)


def test_thresholds_follow_the_frozen_set_of_each_call(monkeypatch):
    # A program is bound for one frozen set: code A, then B with the same
    # kernels, then A again must each decode with their own frozen set, on
    # a program of their own per F, also when calls at another F come between.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    a, b = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6)), CodeSpec((2, 2, 3), (0, 1, 2, 5, 8, 9))
    llrs = np.random.default_rng(61).uniform(-3, 3, (3, 12))
    calls = ((decode_batch, llrs, 3), (decode, llrs[0], 1))
    for order in (calls, calls[::-1]):
        programs = {1: set(), 3: set()}
        for code in (a, b, a, a, b):
            for run, frames, f in order:
                assert_same_as_reference(run(code, frames), code, frames, "exact", (run, code.frozen))
                programs[f].add(id(program_of(code, f)))
        assert len(programs[1]) == len(programs[3]) == 2  # one program per code and F decoded all five
    # Codes A, B, A, where only A has all-frozen sub-codes above the tail:
    # no step of A writes the bits inside its folds, and B's run, on its own
    # program, leaves them 0. Above the last stage alone, B's REP nodes
    # (bits 0 .. 2 and 9 .. 11) fold, and the less of each decides its last
    # bit. Then A's frozen set in a new CodeSpec: it runs on A's program,
    # so its results are A's and its step list is A's.
    a, b = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 5, 9, 10, 11)), CodeSpec((2, 2, 3), (0, 1, 5, 8, 9, 10))
    again = CodeSpec(a.bases, a.frozen)
    # the look-ahead tail, then the last stage alone
    for frames, folds, rep in ((1, {0: 1}, {}), (41, {0: 1, 9: 2}, {0: 2, 9: 2})):
        llrs = np.random.default_rng(62).uniform(-3, 3, (frames, 12))
        for code, want in ((a, folds), (b, rep), (a, folds), (again, folds)):
            result = decode_batch(code, llrs)
            assert_same_as_reference(result, code, llrs, "exact", (frames, code.frozen))
            program = program_of(code, frames)
            assert program.folds == want
            if code is a:
                kept = result, list(program.steps("exact"))
        assert np.array_equal(result.u_hat, kept[0].u_hat) and np.array_equal(result.final_llrs, kept[0].final_llrs)
        steps = program.steps("exact")
        assert len(steps) == len(kept[1]) and all(x is y for x, y in zip(steps, kept[1])), frames


def test_a_writeable_frozen_mask_is_refused(monkeypatch):
    # The cache key holds code.frozen, which a frozen_mask made writeable
    # could come to disagree with: decode_batch refuses such a code before
    # it binds a program. A fresh CodeSpec with the same frozen set then
    # binds one program, and another fresh one runs on it.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    binds = counting_binds(monkeypatch)
    frozen = (0, 1, 2, 3, 4, 5, 9, 10, 11)
    code = CodeSpec((2, 2, 3), frozen)
    code.frozen_mask.flags.writeable = True
    llrs = np.random.default_rng(131).uniform(-3, 3, (41, 12))
    for run, rows in ((decode_batch, llrs), (decode, llrs[0])):
        with pytest.raises(ValueError, match="writeable"):
            run(code, rows)
    assert binds == [] and not mkpolar.decoder._PROGRAMS
    for again in (CodeSpec((2, 2, 3), frozen), CodeSpec((2, 2, 3), frozen)):
        assert_same_as_reference(decode_batch(again, llrs), again, llrs, "exact", "again")
    assert binds == list(mkpolar.decoder._PROGRAMS) == [mkpolar.decoder._key(again, 41)]


def test_frame_count_changes_rebind_the_program(monkeypatch):
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    code = CodeSpec((3, 2, 2), (0, 1, 2, 4))
    rng = np.random.default_rng(43)
    three, one = rng.uniform(-3, 3, (3, 12)), rng.uniform(-3, 3, (1, 12))
    first = decode_batch(code, three)
    assert_same_as_reference(first, code, three, "exact", "F = 3")
    assert_same_as_reference(decode_batch(code, one), code, one, "exact", "F = 1")
    again = decode_batch(code, three)
    assert np.array_equal(again.u_hat, first.u_hat)
    assert np.array_equal(again.final_llrs, first.final_llrs)


def test_only_batches_up_to_the_entry_cap_stay_bound(monkeypatch):
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    cap = mkpolar.decoder.BATCH_LLR_ENTRIES // CODE_223.N
    decode_batch(CODE_223, np.ones((cap, 12)))
    assert program_of(CODE_223, cap).final_llrs.shape[1] == cap
    # a larger batch runs on memory of its own, freed when it returns
    decode_batch(CODE_223, np.ones((cap + 1, 12)))
    assert list(mkpolar.decoder._PROGRAMS) == [mkpolar.decoder._key(CODE_223, cap)]


def counting_binds(monkeypatch):
    """The cache key (kernel key, frozen set, F) of every program bound from here on."""
    binds = []
    real_init = _Program.__init__

    def init(self, code, frames):
        binds.append(mkpolar.decoder._key(code, frames))
        real_init(self, code, frames)

    monkeypatch.setattr(_Program, "__init__", init)
    return binds


def test_alternating_frame_counts_bind_each_once(monkeypatch):
    # single-frame decodes between 40-frame batches of the same kernels
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    binds = counting_binds(monkeypatch)
    code = CodeSpec((2, 2, 2, 2, 3, 3), range(0, 144, 2))
    rng = np.random.default_rng(71)
    for frames in (1, 40, 1, 40, 1):
        llrs = rng.normal(1.0, 2.0, (frames, code.N))
        assert_same_as_reference(decode_batch(code, llrs), code, llrs, "exact", frames)
    assert binds == [mkpolar.decoder._key(code, 1), mkpolar.decoder._key(code, 40)]


def test_repeated_runs_bind_nothing(monkeypatch):
    # A run binds once per distinct batch size; the same run again finds
    # every program it needs in the cache.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    config = SimConfig(CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6)), (0.0, 4.0), max_frames=300,
                       target_frame_errors=10, seed=3)
    construct = ((2, 2, 2, 2, 3, 3), 72, 1.0, 1000, 0)  # batches of 455, 455 and 90
    first = simulate(config).to_csv(), construct_frozen_mc(*construct)
    binds = counting_binds(monkeypatch)
    assert (simulate(config).to_csv(), construct_frozen_mc(*construct)) == first
    assert binds == []


CONSTRUCTIONS = (((2, 2, 2, 2, 3, 3), 72, 1.0, 40, 0), ((2, 2, 3), 6, 1.0, 6000, 1), ((3, K4), 6, 1.0, 7, 2))


def test_construction_binds_no_program(monkeypatch):
    # Construction binds no SC program, with its schedule and partial sums:
    # the all-frozen code folds whole at stage 0, so the program it checks
    # out is the genie pass alone. Each binds only the fold's zero-prefix
    # passes and take, with no candidate pass, tail or partial-sum push,
    # and its work pool holds only what those passes work in.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    for args in CONSTRUCTIONS:
        construct_frozen_mc(*args)
    assert len(mkpolar.decoder._PROGRAMS) == 4
    for program in mkpolar.decoder._PROGRAMS.values():
        assert program.folds == {0: 0}
        assert {key[0] for key in program._bound} == {"fold", "take"}
        operands = [x for steps in program._bound.values() for fn, args in steps
                    for x in (getattr(fn, "__self__", None), *args) if isinstance(x, np.ndarray)]
        bases = {id(x if x.base is None else x.base) for x in operands}
        assert program.work and all(id(x) in bases for x in program.work.values())


def genie_code(bases):
    """The all-frozen code of a kernel sequence, whose program construction runs."""
    return CodeSpec(bases, range(CodeSpec(bases).N))


def test_construction_binds_one_genie_pass_per_kernel_sequence_and_batch(monkeypatch):
    # Construction binds the genie pass, the all-frozen code's program, once
    # per kernel sequence and batch size, and caches it under the key
    # decode_batch gives the all-frozen code.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    binds = counting_binds(monkeypatch)
    for args in CONSTRUCTIONS + CONSTRUCTIONS:
        construct_frozen_mc(*args)
    codes = [genie_code(args[0]) for args in CONSTRUCTIONS]
    want = [mkpolar.decoder._key(code, frames) for code, frames in zip(codes[:2] + codes[1:], (40, 5461, 539, 7))]
    assert binds == want and list(mkpolar.decoder._PROGRAMS) == want


def test_construction_leaves_the_program_of_a_decode_alone(monkeypatch):
    # A construction with the kernel sequence and batch size of an earlier
    # decode_batch binds a program of its own, for the all-frozen code, so
    # the decode's program keeps its bytes and charge, and the decode after
    # it gives the same results. On a program shared by the two, the
    # construction's whole-code fold grew it from 616,089 to 724,761 B.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    code = CodeSpec((2, 2, 2, 2, 3, 3), PAPER_FROZEN[2, 2, 2, 2, 3, 3])
    llrs = np.random.default_rng(37).normal(1.0, 2.0, (40, code.N))

    def decoded():
        result = decode_batch(code, llrs)
        return result.u_hat.tobytes(), result.final_llrs.tobytes()

    want = decoded()  # leaves its program in the cache
    program = program_of(code, 40)
    held = program.nbytes, program.charge
    binds = counting_binds(monkeypatch)
    construct_frozen_mc(code.bases, 72, 1.0, 40, 0)
    assert (program.nbytes, program.charge) == held
    assert decoded() == want and (program.nbytes, program.charge) == held
    genie = mkpolar.decoder._key(genie_code(code.bases), 40)
    assert binds == [genie] and list(mkpolar.decoder._PROGRAMS) == [genie, mkpolar.decoder._key(code, 40)]


def test_interleaved_constructions_match_runs_on_an_empty_cache(monkeypatch):
    # Programs of four kernel sequences, two of them of equal sizes, at
    # F = 1, 40 and the 455 and 90 of 1000 frames at N = 144, taken from
    # the cache in turns: each construction gives the frozen set of the
    # same run on an empty cache.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    cache = mkpolar.decoder._PROGRAMS
    runs = [(bases, k, 1.0, frames, seed) for frames, seed in ((1, 4), (40, 5), (1000, 6))
            for bases, k in (((2, 2, 2, 2, 3, 3), 72), ((3, K4), 6), ((2, 2, 3), 5), ((2, 2, OTHER), 5))]
    want = []
    for args in runs:
        cache.clear()
        want.append(construct_frozen_mc(*args))
    cache.clear()
    for _ in range(2):
        assert [construct_frozen_mc(*args) for args in runs] == want
    assert want[2::4] != want[3::4]  # so a program shared by the two would show
    assert len(cache) == 13  # N = 12 takes 1000 frames in one batch


def charge(program):
    """A program's share of the cache budget: its array bytes and
    STEP_BYTES per bound step."""
    return program.nbytes + mkpolar.decoder.STEP_BYTES * sum(map(len, program._bound.values()))


def test_cache_evicts_least_recently_used_within_its_byte_budget(monkeypatch):
    # Idle programs stay per (kernel key, frozen set, F), so a decode and a
    # construction never share one. After each run that bound a program or
    # more of its steps, the least recently used go until the rest charge
    # at most CACHE_BYTES, each its array bytes and STEP_BYTES per bound
    # step; a hit makes a program the most recent. Calls named cA and cB are
    # constructions with A's and B's kernels, on the all-frozen code's program.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    cache = mkpolar.decoder._PROGRAMS
    budget = mkpolar.decoder.CACHE_BYTES
    cap = mkpolar.decoder.BATCH_LLR_ENTRIES // 12
    codes = {"A": CODE_223, "B": CodeSpec((3, 2, 2))}
    calls = [("A", cap, ["A cap"]),
             ("A", 3000, ["A cap", "A 3000"]),
             ("B", 3000, ["A cap", "A 3000", "B 3000"]),
             ("A", cap, ["A 3000", "B 3000", "A cap"]),  # a hit
             ("A", 2500, ["B 3000", "A cap", "A 2500"]),
             ("A", cap + 1, ["B 3000", "A cap", "A 2500"]),  # never kept
             ("B", 3500, ["A cap", "A 2500", "B 3500"]),
             ("cA", 3000, ["A 2500", "B 3500", "cA 3000"]),  # a construction evicts a decode's program
             ("A", 2500, ["B 3500", "cA 3000", "A 2500"]),
             ("cA", 3000, ["B 3500", "A 2500", "cA 3000"]),  # a hit on a construction's program
             ("A", 3000, ["A 2500", "cA 3000", "A 3000"]),  # a decode binds its own next to it
             ("cA", 2500, ["A 2500", "cA 3000", "A 3000", "cA 2500"]),  # and a construction next to a decode's
             ("A", cap, ["A 3000", "cA 2500", "A cap"]),
             ("cB", cap, ["A cap", "cB cap"]),
             ("A", cap, ["cB cap", "A cap"]),
             ("B", 2000, ["A cap", "B 2000"])]  # a decode evicts a construction's program
    names = {}
    for name, code in codes.items():
        for kind, run in (("", code), ("c", genie_code(code.bases))):
            for f in (cap, 2000, 2500, 3000, 3500):
                names[mkpolar.decoder._key(run, f)] = f"{kind}{name} {'cap' if f == cap else f}"
    for name, frames, kept in calls:
        if name.startswith("c"):
            construct_frozen_mc(codes[name[1]].bases, 6, 1.0, frames, 0)
        else:
            decode_batch(codes[name], np.ones((frames, 12)))
        assert [names[key] for key in cache] == kept, (name, frames)
        assert sum(charge(program) for program in cache.values()) <= budget
        assert all(program.charge == charge(program) for program in cache.values())
        assert all(program.final_llrs.shape == (12, key[-1]) for key, program in cache.items())
    # Programs of few frames hold most of their bytes in their steps: an
    # F = 1 .. 12 sweep of one N = 972 code charges STEP_BYTES per bound
    # step past the budget, while the array bytes of all 12 would fit.
    cache.clear()
    code = CodeSpec((2, 2, 3, 3, 3, 3, 3))
    arrays = 0
    for frames in range(1, 13):
        decode_batch(code, np.ones((frames, code.N)))
        arrays += program_of(code, frames).nbytes
        assert sum(charge(program) for program in cache.values()) <= budget
    kept = [key[-1] for key in cache]
    assert kept == list(range(13 - len(kept), 13)) and len(kept) < 12 and arrays <= budget, kept


def test_a_mode_bound_later_is_charged_at_once(monkeypatch):
    # A program run in minsum mode only holds no exact-mode work arrays. Its
    # first exact run binds them, megabytes at the cap, and evicts at once.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    cache = mkpolar.decoder._PROGRAMS
    codes = [CodeSpec(bases) for bases in ((3, 2, 2), (3, 3), (2, 3, 2))]
    llrs = [np.ones((mkpolar.decoder.BATCH_LLR_ENTRIES // code.N, code.N)) for code in codes]
    for code, frames in zip(codes, llrs):
        decode_batch(code, frames, "minsum")
    assert len(cache) == 3
    decode_batch(codes[0], llrs[0], "exact")
    assert list(cache) == [mkpolar.decoder._key(codes[i], len(llrs[i])) for i in (2, 0)]
    assert sum(charge(program) for program in cache.values()) <= mkpolar.decoder.CACHE_BYTES


def test_two_capped_programs_of_any_paper_code_fit_the_budget():
    charges = []
    for bases in PAPER_CODES:
        code = CodeSpec(bases)
        program = _Program(code, mkpolar.decoder.BATCH_LLR_ENTRIES // code.N)
        program.steps("exact"), program.steps("minsum")
        charges.append(charge(program))
    assert sum(sorted(charges)[-2:]) <= mkpolar.decoder.CACHE_BYTES, charges


def test_fold_work_is_shared_by_the_modes(monkeypatch):
    # A fold's work arrays are the pool's, which serves both modes: the
    # capped all-frozen (3, K4) program charged 13.5 MiB after an exact run,
    # and when its fold kept a second candidates array for its minsum run,
    # that took it above CACHE_BYTES, so it was evicted at once and every
    # call bound it again.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    code = CodeSpec((3, K4), range(12))
    frames = mkpolar.decoder.BATCH_LLR_ENTRIES // code.N
    llrs = np.random.default_rng(107).normal(1.0, 2.0, (frames, code.N))
    held = []
    for mode in ("exact", "minsum", "exact"):
        decode_batch(code, llrs, mode)
        program = mkpolar.decoder._PROGRAMS.get(mkpolar.decoder._key(code, frames))
        assert program is not None and program.charge <= mkpolar.decoder.CACHE_BYTES, mode
        held.append(program.nbytes)
    assert held[0] == held[1] == held[2]


@pytest.mark.parametrize("bases,most", [((2, 2, 3), 200), ((2, 2, 3, 3, 3, 3, 3), 20)])
def test_frame_count_sweep_keeps_little_memory(monkeypatch, bases, most):
    # Decoding F = 1, 2, 3, ... on one code binds a program per F. Charged
    # F * N plus 5 per step, the (2,2,3) sweep kept 20.9 MiB in 83 programs,
    # as the look-ahead's leaf tables and work arrays went uncounted.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    code = CodeSpec(bases)
    kept = 0
    tracemalloc.start()
    try:
        for frames in range(1, most + 1):
            decode_batch(code, np.ones((frames, code.N)))
            kept = max(kept, tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert kept < 18 * 2**20, kept / 2**20


def test_a_call_made_during_a_decode_gets_its_own_program(monkeypatch):
    # As another thread could: a decode of the same code that runs before
    # the first one has copied out its results.
    code = CodeSpec((2, 2, 3), (0, 1, 2))
    outer, inner = np.random.default_rng(47).uniform(-3, 3, (2, 12))
    decode(code, inner)  # leaves an idle program in the cache
    real_run = _Program.run

    def run_then_decode_again(self, *args):
        real_run(self, *args)
        monkeypatch.setattr(_Program, "run", real_run)
        decode(code, inner)

    monkeypatch.setattr(_Program, "run", run_then_decode_again)
    assert_same_as_reference(decode(code, outer), code, outer, "exact", "outer")


def test_a_construction_made_during_a_construction_gets_its_own_program(monkeypatch):
    # As another thread could: a construction of the same kernels and batch
    # size, with other noise, that runs before the first one has scored its
    # batch from the decision LLRs its program holds.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    outer, inner = ((2, 2, 3), 6, 1.0, 40, 0), ((2, 2, 3), 6, 1.0, 40, 1)
    want = construct_frozen_mc(*inner), construct_frozen_mc(*outer)  # leaves an idle program
    assert want[0] != want[1]  # so a program shared by the two would show
    binds = counting_binds(monkeypatch)
    real_run, got = _Program.run, []

    def run_then_construct_again(self, *args):
        real_run(self, *args)
        monkeypatch.setattr(_Program, "run", real_run)
        got.append(construct_frozen_mc(*inner))

    monkeypatch.setattr(_Program, "run", run_then_construct_again)
    got.append(construct_frozen_mc(*outer))
    assert got == list(want)
    assert binds == [mkpolar.decoder._key(genie_code(CODE_223.bases), 40)]


class Stopped(Exception):
    """Raised partway through a run's steps, as an interrupt could be."""


def stop_once_halfway(steps):
    """Make the middle step of a bound step list raise Stopped once, and
    run as bound from then on."""
    k = len(steps) // 2
    step = steps[k]

    def stop(*args):
        steps[k] = step
        raise Stopped

    steps[k] = stop, step[1]


class RecordingCache(dict):
    """A program cache that records the key of every program put into it."""

    def __init__(self):
        super().__init__()
        self.puts = []

    def __setitem__(self, key, program):
        self.puts.append(key)
        super().__setitem__(key, program)


def test_a_run_stopped_partway_goes_back_into_the_cache_once(monkeypatch):
    # A run that raises before its steps or partway through them, on a
    # program just bound for a decode or a construction, on a program
    # binding its minsum steps, or on one taken from the cache, puts it back
    # once as the most recently used, charged for what it bound, and the
    # next call matches a run on an empty cache.
    cache = RecordingCache()
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", cache)
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    llrs = np.random.default_rng(89).normal(1.0, 2.0, (7, 12))
    key = mkpolar.decoder._key(code, 7)

    def decoded(mode):
        result = decode_batch(code, llrs, mode)
        return result.u_hat.tobytes(), result.final_llrs.tobytes()

    runs = [(lambda: decoded("exact"), key), (lambda: decoded("minsum"), key),
            (lambda: construct_frozen_mc(code.bases, 6, 1.0, 5, 0), mkpolar.decoder._key(genie_code(code.bases), 5))]
    want = []
    for run, _ in runs:
        cache.clear()
        want.append(run())
    cache.clear()
    cache.puts.clear()
    real_steps = _Program.steps

    def steps(self, mode):  # the steps a run runs
        monkeypatch.setattr(_Program, "steps", real_steps)
        if early:
            raise Stopped
        bound = real_steps(self, mode)
        stop_once_halfway(bound)
        return bound

    for (call, where), expected in zip(runs, want):
        for stopped, early in enumerate((True, False, False)):
            monkeypatch.setattr(_Program, "steps", steps)
            with pytest.raises(Stopped):
                call()
            assert cache.puts == [where] and list(cache)[-1] == where, (where, stopped)
            assert cache[where].charge == charge(cache[where]), (where, stopped)
            monkeypatch.setattr(_Program, "steps", real_steps)
            cache.puts.clear()
            assert call() == expected, (where, stopped)
            cache.puts.clear()


def test_a_binding_stopped_partway_keeps_no_steps(monkeypatch):
    # A program stopped while it binds its steps keeps no partial step
    # list: the next call binds the rest and decodes every bit.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    llrs = np.random.default_rng(91).normal(1.0, 2.0, (7, 12))
    real_bind_tail, blocks = _Program._bind_tail, []

    def bind_tail(self, a):
        blocks.append(a)
        if len(blocks) == 1:  # after the fold of bits 0 .. 5, a REP node
            raise Stopped
        return real_bind_tail(self, a)

    monkeypatch.setattr(_Program, "_bind_tail", bind_tail)
    with pytest.raises(Stopped):
        decode_batch(code, llrs)
    assert_same_as_reference(decode_batch(code, llrs), code, llrs, "exact", blocks)


def test_bad_arguments_fail_before_any_binding(monkeypatch):
    def no_allocate(code, frames=1):
        raise AssertionError("memory allocated for a call that must fail")

    monkeypatch.setattr(mkpolar.decoder, "allocate", no_allocate)
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    bad = np.zeros(12)
    bad[5] = np.nan
    for run, llrs in ((decode, np.zeros(12)), (decode_batch, np.zeros((2, 12)))):
        with pytest.raises(ValueError):
            run(CODE_223, llrs, "fast")
    with pytest.raises(LengthMismatch):
        decode(CODE_223, np.zeros(11))
    with pytest.raises(NonFiniteInput):
        decode_batch(CODE_223, bad[None])
    # complex LLRs would decode their real part, after a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run, llrs in ((decode, np.ones(12) + 0.5j), (decode, [1j] * 12),
                          (decode_batch, np.ones((2, 12), np.complex64))):
            with pytest.raises(ValueError, match="real"):
                run(CODE_223, llrs)


def test_decode_batch_validation(monkeypatch):
    with pytest.raises(LengthMismatch):
        decode_batch(CODE_223, np.zeros(12))
    with pytest.raises(LengthMismatch):
        decode_batch(CODE_223, np.zeros((2, 11)))
    bad = np.zeros((2, 12))
    for value in (np.nan, 1.7e308, -1e301):
        bad[1, 3] = value
        with pytest.raises(NonFiniteInput):
            decode_batch(CODE_223, bad)
    # LLRs that are both non-finite and of the wrong shape fail as non-finite
    with pytest.raises(NonFiniteInput):
        decode_batch(CODE_223, np.full((2, 11), np.nan))
    with pytest.raises(ValueError):
        decode_batch(CODE_223, np.zeros((2, 12)), "fast")
    # no frames: nothing to decode, so no program is bound or cached
    cached = list(mkpolar.decoder._PROGRAMS.items())
    monkeypatch.setattr(mkpolar.decoder, "_Program", None)
    empty = decode_batch(CODE_223, np.zeros((0, 12)))
    assert list(mkpolar.decoder._PROGRAMS.items()) == cached
    assert empty.u_hat.shape == empty.final_llrs.shape == (0, 12)
    assert (empty.u_hat.dtype, empty.final_llrs.dtype) == (np.uint8, np.float64)
    assert empty.stats.llr_updates.tolist() == cumulative_products(CODE_223.bases)


def test_schedule_is_shared_by_kernel_contents(monkeypatch):
    # Codes built afresh with the same frozen set and an equal kernel built
    # anew run on one bound program, while another frozen set, or a
    # different kernel of the same size, binds its own. The counters rest on
    # the kernel sizes alone.
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    programs, llrs = mkpolar.decoder._PROGRAMS, np.ones((1, 6))
    first = decode_batch(CodeSpec((2, 3), (0,)), llrs).stats
    (program,) = programs.values()
    t3 = KernelMatrix([[1, 1, 1], [1, 0, 1], [0, 1, 1]])
    for code in (CodeSpec((2, 3), (0,)), CodeSpec((2, t3), (0,))):
        assert stats_lists(decode_batch(code, llrs).stats) == stats_lists(first)
        assert list(programs.values()) == [program]
    for code in (CodeSpec((2, 3), (1, 4)), CodeSpec((2, OTHER), (0,))):
        assert stats_lists(decode_batch(code, llrs).stats) == stats_lists(first)
    assert len(programs) == 3 and program in programs.values()


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


def test_genie_pass_is_the_all_frozen_decode(monkeypatch):
    # Construction runs the all-frozen code's program, which folds the
    # whole code at stage 0: one zero-prefix pass per stage and a take. On
    # tie-prone LLRs it gives the decisions and LLRs of the reference
    # executor bit for bit with kernels of size 2 and 3, in both modes. A
    # size-4 kernel sums longer runs, which BLAS may order by batch size,
    # so there they agree to rounding (up to 7.1e-15 seen).
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    rng = np.random.default_rng(29)
    values = np.array([0.0, 0.7, -0.7, 1.3, -1.3, 2.9, -2.9, 40.0, -40.0])
    cases = [(bases, 0.0) for bases in [*all_kernel_sequences(72), (2, 2, 2, 2, 3, 3)]]
    cases += [((K4, K4), 1e-12), ((3, K4), 1e-12), ((K4, 3, 2), 1e-12)]
    for bases, tol in cases:
        code = CodeSpec(bases, range(CodeSpec(bases).N))
        program = _Program(code, 1)
        program.run(code, np.zeros((1, code.N)), "exact")
        assert (program.folds, program.reps) == ({0: 0}, set()), bases
        for frames in (1, 7, mkpolar.decoder.BATCH_LLR_ENTRIES // code.N):
            llrs = rng.choice(values, (frames, code.N))
            for mode in ("exact", "minsum"):
                got, (decisions, want) = decode_batch(code, llrs, mode), reference_decode(code, llrs, mode)
                where = (bases, frames, mode)
                assert got.u_hat.tobytes() == decisions.tobytes(), where
                if tol:
                    assert np.abs(got.final_llrs - want).max() <= tol, where
                else:
                    assert got.final_llrs.tobytes() == want.tobytes(), where


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


# every ordering up to N = 72, the paper codes and two custom last kernels
COUNTER_CODES = [*all_kernel_sequences(72), *PAPER_CODES, (2, 2, OTHER), (2, K4)]


# six cases, each taking every sixth code
@pytest.mark.parametrize("bases", [COUNTER_CODES[i::6] for i in range(6)])
def test_counter_laws(bases):
    # At F = 0 (nothing decoded), 1 and 7 frames, stats equal both the closed
    # forms and an op-by-op count of the flat schedule.
    rng = np.random.default_rng(19)
    for kernels in bases:
        code = CodeSpec(kernels)
        sizes = code.bases
        prods = cumulative_products(sizes)
        want_reads, want_writes = [], []
        for j, p in enumerate(sizes, start=1):
            before = 1 if j == 1 else prods[j - 2]
            want_reads.append([(p - 1 - c) * before for c in range(p)])
            want_writes.append([before - (1 if c == p - 1 else 0) for c in range(p)])
        want_props = [0] + [prods[j - 2] - 1 for j in range(2, len(sizes) + 1)]
        laws = (prods, want_props, want_reads, want_writes)
        counted = stats_lists(counted_stats(code))
        for frames in (0, 1, 7):
            stats = decode_batch(code, rng.uniform(-3, 3, (frames, code.N))).stats
            where = (sizes, frames)
            assert stats_lists(stats) == laws == counted, where
            arrays = [stats.llr_updates, stats.ps_propagations, *stats.ps_reads, *stats.ps_writes]
            assert all(a.dtype == np.int64 for a in arrays), where
            assert [c.size for c in stats.ps_reads] == [c.size for c in stats.ps_writes] == list(sizes), where


def test_stage_one_counters_keep_a_slot_for_the_absent_column():
    code = CodeSpec((2, 3, 2))
    first = decode(code, np.zeros(12)).stats
    assert first.ps_reads[0].size == first.ps_writes[0].size == 2
    assert allocate(code).ps[0].shape[-1] == 1
    # each decode reports its own counts: they start from zero every time
    first.llr_updates[:] = 99
    assert decode(code, np.ones(12)).stats.llr_updates.tolist() == [2, 6, 12]


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
