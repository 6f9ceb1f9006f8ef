"""AWGN channel model, Monte-Carlo harness, exhaustive reference decoders."""

import tracemalloc

import numpy as np
import pytest

from mkpolar import (
    CSV_HEADER,
    LLR_MAX,
    CodeSpec,
    IndexOutOfRange,
    InvalidRate,
    LengthMismatch,
    NonFiniteInput,
    SimConfig,
    awgn_llrs,
    construct_frozen_mc,
    decode,
    encode,
    simulate,
)
from mkpolar import simulation
from mkpolar.decoder import BATCH_LLR_ENTRIES
from oracles import TooLarge, exact_sc_oracle_llr, ml_oracle_decode
from reference_sc import f_exact, kernel_marginal_llr

T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)


def test_awgn_rejects_bad_rate():
    rng = np.random.default_rng(0)
    bits = np.zeros(4, dtype=np.uint8)
    for rate in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidRate):
            awgn_llrs(bits, 1.0, rate, rng)


@pytest.mark.parametrize("bit", [2, 0.7, -1])
def test_awgn_rejects_bits_other_than_0_and_1(bit):
    # plausible LLRs for impossible bits: a cast to uint8 reads 0.7 as 0
    bits = np.array([0, 1, bit, 0])
    for noiseless in (False, True):
        with pytest.raises(ValueError):
            awgn_llrs(bits, 1.0, 0.5, np.random.default_rng(0), noiseless=noiseless)


def test_awgn_noiseless():
    rng = np.random.default_rng(0)
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    llrs = awgn_llrs(bits, 0.0, 0.5, rng, noiseless=True)
    assert np.array_equal(llrs, [LLR_MAX, -LLR_MAX, -LLR_MAX, LLR_MAX])


def test_awgn_matches_channel_model():
    # Reproduce the draw with an identically seeded generator and apply
    # the BPSK/AWGN LLR formula by hand.
    bits = np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8)
    ebn0_db, rate = 1.5, 0.5
    llrs = awgn_llrs(bits, ebn0_db, rate, np.random.default_rng(42))
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    rng = np.random.default_rng(42)
    y = (1.0 - 2.0 * bits) + rng.normal(0.0, np.sqrt(sigma2), size=6)
    assert np.allclose(llrs, np.clip(2.0 * y / sigma2, -LLR_MAX, LLR_MAX))


def test_awgn_saturates_at_high_snr():
    bits = np.array([0, 1] * 8, dtype=np.uint8)
    llrs = awgn_llrs(bits, 60.0, 0.5, np.random.default_rng(1))
    assert np.array_equal(np.abs(llrs), np.full(16, LLR_MAX))
    assert np.array_equal(llrs < 0, bits.astype(bool))
    # the extremes whose noise variance and LLR scale are still finite
    for snr in (3000.0, -3000.0):
        assert np.isfinite(awgn_llrs(bits, snr, 0.5, np.random.default_rng(1))).all()


def test_awgn_batch_rows_draw_from_their_own_generators():
    bits = np.random.default_rng(3).integers(0, 2, (5, 12), dtype=np.uint8)
    rngs = [np.random.default_rng([9, f]) for f in range(5)]
    batch = awgn_llrs(bits, 1.0, 0.5, rngs)
    for f in range(5):
        row = awgn_llrs(bits[f], 1.0, 0.5, np.random.default_rng([9, f]))
        assert np.array_equal(batch[f], row)
    with pytest.raises(LengthMismatch):
        awgn_llrs(bits, 1.0, 0.5, rngs[:4])
    assert awgn_llrs(bits[:0], 1.0, 0.5, []).shape == (0, 12)


# Finite values past about +-3080 dB have no finite positive sigma^2 or
# LLR scale 2 / sigma^2: they used to raise a bare OverflowError (3083 dB
# and up) or ZeroDivisionError (-3300 dB), or return NaN LLRs (-3230 dB).
@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, 4000.0, -4000.0, -3230.0, 3083.0, -3300.0])
def test_non_finite_snr_is_rejected(snr):
    rng = np.random.default_rng(0)
    for noiseless in (False, True):
        with pytest.raises(NonFiniteInput):
            awgn_llrs(np.zeros(4, dtype=np.uint8), snr, 0.5, rng, noiseless)
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    with pytest.raises(NonFiniteInput):
        simulate(SimConfig(code, (0.0, snr), max_frames=10))
    for k in (6, 0, 12):  # also where no frame is needed
        with pytest.raises(NonFiniteInput):
            construct_frozen_mc((2, 2, 3), k, snr, 10, 0)


def per_frame_counts(config):
    """(frames, frame errors, bit errors) per SNR point, one frame at a
    time from the documented per-frame generators."""
    code = config.code
    info = list(code.info)
    rate = code.K / code.N
    out = []
    for point, snr in enumerate(config.snr_points_db):
        frames = errors = bits = 0
        while frames < config.max_frames and errors < config.target_frame_errors:
            rng = np.random.default_rng([config.seed, point, frames])
            u = np.zeros(code.N, dtype=np.uint8)
            u[info] = rng.integers(0, 2, size=code.K, dtype=np.uint8)
            llrs = awgn_llrs(encode(code, u), snr, rate, rng, config.noiseless)
            wrong = int(np.count_nonzero(decode(code, llrs, config.mode).u_hat[info] != u[info]))
            frames += 1
            errors += wrong > 0
            bits += wrong
        out.append((frames, errors, bits))
    return out


@pytest.mark.parametrize("batch", [1, 7, None])
def test_simulate_counts_do_not_depend_on_batching(monkeypatch, batch):
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    configs = [
        # the target is reached inside a batch of 7: at frame 36 of the
        # 0 dB point here, and at frame 6 in the next config
        SimConfig(code, (0.0, 2.0), max_frames=5000, target_frame_errors=13, seed=4),
        SimConfig(code, (0.0,), max_frames=5000, target_frame_errors=4, seed=4, mode="minsum"),
        # cut by max_frames, 30 = 4 * 7 + 2
        SimConfig(code, (3.0,), max_frames=30, target_frame_errors=1000, seed=2),
    ]
    if batch is not None:
        monkeypatch.setattr(simulation, "_batch_frames", lambda *args: batch)
    for config in configs:
        got = [(p.frames, p.frame_errors, p.bit_errors) for p in simulate(config).points]
        assert got == per_frame_counts(config)
        assert all(type(count) is int for counts in got for count in counts)
    assert per_frame_counts(configs[0])[0][0] == 36
    assert per_frame_counts(configs[1])[0][0] == 6
    assert per_frame_counts(configs[2])[0][0] == 30


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**70 + 3])
def test_frame_generators_equal_default_rng(monkeypatch, seed):
    # Keys of one and of several uint32 words, and a frame window that
    # straddles 2**32, where a frame's entropy grows from one word to two.
    # Then the frames of points 0, 1 and 1000 together, in one hash, or in
    # one per layout of words when a window straddles 2**32.
    hashes = []
    real_pcg64_seeds = simulation._pcg64_seeds
    monkeypatch.setattr(simulation, "_pcg64_seeds", lambda words: hashes.append(words) or real_pcg64_seeds(words))
    runs = [[(key, first, count)] for key in [(seed,)] + [(seed, point) for point in (0, 1, 1000)]
            for first, count in ((0, 5), (2**32 - 2, 4))]
    for window in ((3, 4), (2**32 - 2, 4)):
        runs.append([((seed, 0), 0, 5), ((seed, 1), *window), ((seed, 1000), 9, 2)])
    for run in runs:
        hashes.clear()
        gens = list(simulation._frame_generators(simulation._frame_seeds(run)))
        frames = [(key, f) for key, first, count in run for f in range(first, first + count)]
        assert len(gens) == len(frames)
        assert len(hashes) == 1 + any(first < 2**32 < first + count for _, first, count in run)
        for (key, f), gen in zip(frames, gens):
            ref = np.random.default_rng([*key, f])
            where = (key, f)
            assert np.array_equal(gen.bit_generator.random_raw(7), ref.bit_generator.random_raw(7)), where
            assert np.array_equal(gen.normal(0.0, 1.5, 13), ref.normal(0.0, 1.5, 13)), where


@pytest.mark.parametrize("count", [1, 40, 1000, 5461])
def test_pcg64_seeds_equal_seed_sequence(count):
    # One hash over a batch gives each entropy, of 1 to 6 uint32 words
    # (zero-padded to 4), what SeedSequence gives it alone, checked on the
    # first, the last and sampled rows; through _frame_generators, for keys
    # with words of 2**64 and more and for frames from 2**32 on, whose
    # entropy grows a word.
    rng = np.random.default_rng(count)
    rows = sorted({0, count - 1, *rng.integers(0, count, 20).tolist()})
    for n in range(1, 7):
        words = np.zeros((max(n, 4), count), np.uint32)
        words[:n] = rng.integers(0, 2**32, (n, count), dtype=np.uint64)
        seeds = simulation._pcg64_seeds(words)
        assert seeds.shape == (count, 4) and seeds.dtype == np.uint64
        for f in rows:
            want = np.random.SeedSequence([int(w) for w in words[:n, f]]).generate_state(4, np.uint64)
            assert np.array_equal(seeds[f], want), (n, f)
    for key in [(2**64,), (2**64 + 7, 3), (5, 2**96 - 1)]:
        for first in (2**32 - count // 2, 2**40 + 11):
            gens = list(simulation._frame_generators(simulation._frame_seeds([(key, first, count)])))
            assert len(gens) == count
            for f in rows:
                want = np.random.default_rng([*key, first + f]).bit_generator.state
                assert gens[f].bit_generator.state == want, (key, first + f)


PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@pytest.mark.parametrize("words", [1, 2, 61])
@pytest.mark.parametrize("count", [1, 40, 5461])
def test_draw_words_equal_default_rng(words, count):
    # The batch's first raw words, drawn for every frame at once, are the
    # frame generator's random_raw(words), and each seed row then starts
    # its generator right after them: its next raw words and normal draws
    # are default_rng's. Keys with words of 2**64 and more, and windows
    # that straddle 2**32, checked on the first, the last and sampled rows.
    # Drawn with a seed position below the word count, the words are the
    # same and each generator starts right after that many of them.
    rng = np.random.default_rng(words * count)
    rows = sorted({0, count - 1, *rng.integers(0, count, 12).tolist()})
    for key in [(5, 1), (2**64 + 7, 3), (2**96 - 1, 2**64)]:
        for first in (0, 2**32 - count // 2 - 1):
            seeds = simulation._frame_seeds([(key, first, count)])
            raw = simulation._draw_words(seeds, words)
            assert raw.shape == (count, words) and raw.dtype == np.uint64
            gens = list(simulation._frame_generators(seeds))
            assert len(gens) == count
            for f in rows:
                ref = np.random.default_rng([*key, first + f])
                where = (key, first + f)
                assert np.array_equal(raw[f], ref.bit_generator.random_raw(words)), where
                state = ref.bit_generator.state
                assert np.array_equal(gens[f].bit_generator.random_raw(3), ref.bit_generator.random_raw(3)), where
                assert np.array_equal(gens[f].normal(0.0, 1.5, 7), ref.normal(0.0, 1.5, 7)), where
                # a seed one step off, S_(words + 1) - inc, fails the check
                s_high, s_low, q_high, q_low = map(int, seeds[f])
                inc = (q_high << 65 | q_low << 1 | 1) % 2**128
                off = ((s_high << 64 | s_low) + inc) * PCG_MULT % 2**128
                off_seed = np.array([off >> 64, off % 2**64, q_high, q_low], np.uint64)
                late = np.random.PCG64(simulation._Seeded(off_seed))
                ref.bit_generator.state = state
                assert not np.array_equal(late.random_raw(3), ref.bit_generator.random_raw(3)), where
            for position in sorted({0, words // 2}):
                moved = simulation._frame_seeds([(key, first, count)])
                assert np.array_equal(simulation._draw_words(moved, words, position), raw), (key, position)
                gens = list(simulation._frame_generators(moved))
                for f in rows:
                    ref = np.random.default_rng([*key, first + f]).bit_generator
                    ref.random_raw(position)
                    assert np.array_equal(gens[f].bit_generator.random_raw(3), ref.random_raw(3)), (key, f, position)


def test_awgn_builds_each_generator_inside_its_row():
    # A batch's generators are built one per row as the draw reaches it,
    # so a capped batch holds one, not 5461 of about 750 B each (4 MB).
    count, n = 5461, 12
    bits = np.random.default_rng(1).integers(0, 2, (count, n), dtype=np.uint8)
    seeds = simulation._frame_seeds([((3, 0), 0, count)])
    tracemalloc.start()
    try:
        llrs = awgn_llrs(bits, 1.0, 0.5, simulation._frame_generators(seeds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (F, N) symbols and noise arrays, and 64 KiB more
    assert peak <= 2 * llrs.nbytes + 64 * 1024
    for f in (0, count - 1):
        assert np.array_equal(llrs[f], awgn_llrs(bits[f], 1.0, 0.5, np.random.default_rng([3, 0, f])))
    # a generator per row, counted as the iterable yields them
    for many in (count - 1, count + 1):
        with pytest.raises(LengthMismatch):
            awgn_llrs(bits, 1.0, 0.5, simulation._frame_generators(simulation._frame_seeds([((3, 0), 0, many)])))


def test_noiseless_simulate_builds_no_generator(monkeypatch):
    # A noiseless run draws its message words without generators; its
    # CSV is pinned. A noisy run builds one generator per frame decoded
    # above the ziggurat crossover (N = 72), and at N = 12 one per frame
    # that it counts in generator_frames.
    simulation._ziggurat()  # its probes and check build generators once per process
    built = []
    real_pcg64 = np.random.PCG64

    def counting_pcg64(seed):
        built.append(seed)
        return real_pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
    code = CodeSpec((2, 2, 2, 3, 3), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                                      22, 23, 24, 25, 27, 28, 36, 37, 38, 39, 40, 42, 45, 54])
    csv = simulate(SimConfig(code, (1.0, 3.5), max_frames=2000, seed=2**33 + 1, noiseless=True)).to_csv()
    assert csv == CSV_HEADER + "\n1.0,2000,0,0,0.0,0.0\n3.5,2000,0,0,0.0,0.0\n"
    assert not built
    points = simulate(SimConfig(code, (1.0,), max_frames=300, target_frame_errors=5, seed=2)).points
    assert len(built) == points[0].decoded_frames == points[0].generator_frames
    built.clear()
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    points = simulate(SimConfig(code, (1.0,), max_frames=2000, target_frame_errors=20, seed=2)).points
    assert 0 < len(built) == points[0].generator_frames < points[0].decoded_frames / 2


@pytest.mark.parametrize("n", [1, 2, 12, simulation._ZIGGURAT_NORMALS, simulation._ZIGGURAT_NORMALS + 1, 72])
def test_frame_normals_are_each_frames_own_draws(n):
    # A batch's normals are bit for bit what each frame's default_rng([*key, f])
    # draws after its K message bits, for K = 0 and K = n, for keys with words
    # of 2**64 and more and for a window across frame 2**32, the noise words
    # drawn by _frame_normals or, as simulate does, with the message words.
    # Up to the crossover, most frames come from the batch's raw words, the
    # others from their generators; beyond it, every frame comes from its
    # generator.
    count, frames, generator_frames = 2000 // n + 50, 0, 0
    for key, first in (((7001, 1), 0), ((2**64 + 3, 2**70), 2**32 - 40)):
        for k, with_message in ((0, False), (n, False), (0, True), (n, True)):
            seeds, words, noise_words = simulation._frame_seeds([(key, first, count)]), -(-k // 8), None
            if with_message:
                noise_words = simulation._draw_words(seeds, words + n, words)[:, words:]
            elif k:
                simulation._draw_words(seeds, words)
            noise, drawn = simulation._frame_normals(seeds, n, noise_words)
            for f in range(count):
                rng = np.random.default_rng([*key, first + f])
                rng.integers(0, 2, k, dtype=np.uint8)
                assert noise[f].view(np.uint64).tolist() == rng.standard_normal(n).view(np.uint64).tolist(), (key, k, f)
            frames, generator_frames = frames + count, generator_frames + drawn
    if n <= simulation._ZIGGURAT_NORMALS:
        assert 0 < generator_frames < frames / 2
    else:
        assert generator_frames == frames


def test_ziggurat_bounds_are_at_most_numpys():
    # numpy's bound of each layer, the least rabs whose draw takes more than
    # one raw word, found by bisection over generators seeded so that their
    # first raw word is set: every bound of the batch draw is at most
    # numpy's, every layer that numpy draws from one word is drawn so, and
    # the widths are numpy's draws of rabs = 1.
    mult, mask = simulation._PCG_MULT, (1 << 128) - 1
    inverse = pow(mult, -1, 1 << 128)

    def first_draw(r):  # with inc = 1, seeding lands on S_1 = (s + 1) M + 1 and the draw on S_1 M + 1 = r
        s = ((r - 1) * inverse - 1) * inverse - 1 & mask
        bits = np.random.PCG64(simulation._Seeded(np.array([s >> 64, s & (1 << 64) - 1, 0, 0], np.uint64)))
        return np.random.Generator(bits).standard_normal(), bits.state["state"]["state"] == r

    w, k = simulation._ziggurat()
    assert np.array_equal(k[:256], k[256:]) and np.array_equal(w[:256], -w[256:])
    for layer in range(256):
        low, high = 0, 1 << 52  # numpy's bound is in [low, high]
        while low < high:
            mid = (low + high) // 2
            low, high = (mid + 1, high) if first_draw(mid << 9 | layer)[1] else (low, mid)
        assert k[layer] <= low, layer
        assert (k[layer] > 0) == (low > 0), layer
        if k[layer]:
            assert first_draw(1 << 9 | layer)[0] == w[layer], layer


def test_simulate_takes_few_batches_past_few_frames(monkeypatch):
    # The benchmark's full simulation, (2,2,3) at 0 and 4 dB to 100 frame
    # errors, on seeds 1 and 2. Batches of half the frames that the count
    # so far predicts took 39 batches (19 and 20) for 14,910 decoded
    # frames; counting the errors one standard deviation high takes 16
    # (8 and 8) for 14,991. 14,875 frames are counted either way.
    calls = []
    real_decisions = simulation._decisions

    def counting_decisions(code, llrs, mode):
        calls.append(len(llrs))
        return real_decisions(code, llrs, mode)

    monkeypatch.setattr(simulation, "_decisions", counting_decisions)
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    points = [p for seed in (1, 2) for p in
              simulate(SimConfig(code, (0.0, 4.0), max_frames=1_000_000, target_frame_errors=100, seed=seed)).points]
    # the counts of the parent's batching
    assert [(p.frames, p.frame_errors, p.bit_errors) for p in points] == [
        (361, 100, 295), (7430, 100, 279), (406, 100, 282), (6678, 100, 293)]
    assert len(calls) < 39
    assert sum(calls) <= 1.03 * sum(p.frames for p in points)
    assert len(calls) < sum(p.batches for p in points)
    assert sum(p.decoded_frames for p in points) == sum(calls)
    # doubling before the first error, then the remaining errors over the
    # count plus its standard deviation: 96 * 100 / (4 + 2), 1 * 1000 / (99 + 9.95)
    rule = [simulation._batch_frames(*args) for args in ((0, 0, 100), (300, 0, 100), (100, 4, 100), (1000, 99, 100))]
    assert rule == [100, 300, 1600, 10]


@pytest.mark.parametrize("bases,frozen", [((2, 2, 3), (0, 1, 2, 3, 4, 6)), ((2, 2, 2, 2, 3, 3), range(72))])
def test_open_points_share_decoder_calls(monkeypatch, bases, frozen):
    # The open points of a sweep decode their batches together, in calls of
    # at most BATCH_LLR_ENTRIES // N frames: at N = 144, 455 frames, so the
    # first round's five batches of 100 take two calls.
    calls = []
    real_decisions = simulation._decisions

    def counting_decisions(code, llrs, mode):
        calls.append(len(llrs))
        return real_decisions(code, llrs, mode)

    monkeypatch.setattr(simulation, "_decisions", counting_decisions)
    code = CodeSpec(bases, frozen)
    snrs = (0.0, 4.0) if code.N == 12 else (0.0, 1.0, 2.0, 3.0, 4.0)
    points = simulate(SimConfig(code, snrs, max_frames=20000, target_frame_errors=100)).points
    assert len(calls) < sum(p.batches for p in points)
    assert max(calls) <= BATCH_LLR_ENTRIES // code.N
    assert sum(calls) == sum(p.decoded_frames for p in points)
    if code.N == 144:
        assert calls[:2] == [400, 100]


@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_a_point_does_not_depend_on_the_points_beside_it(mode):
    # Point n draws from default_rng([seed, n, f]) and sizes its batches from
    # its own counts, so its CSV row and counts are the same whichever other
    # points share its rounds and calls.
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    sweeps = [simulate(SimConfig(code, snrs, max_frames=3000, target_frame_errors=60, seed=11, mode=mode))
              for snrs in ((0.0, 4.0), (0.0, 4.0, -1.0, 2.0), (0.0,))]

    def row(result, n):
        p = result.points[n]
        return result.to_csv().splitlines()[1 + n], p.decoded_frames, p.batches, p.generator_frames

    assert [row(sweeps[0], n) for n in (0, 1)] == [row(sweeps[1], n) for n in (0, 1)]
    assert row(sweeps[0], 0) == row(sweeps[2], 0)


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 1])
def test_simulate_message_bits_equal_integers(monkeypatch, seed):
    # simulate draws its message bits as raw words; they must be exactly
    # what integers(0, 2, k, uint8) gives frame f's generator.
    drawn = []
    real_encode = simulation.encode

    def recording_encode(code, u):
        drawn.append(u.copy())
        return real_encode(code, u)

    monkeypatch.setattr(simulation, "encode", recording_encode)
    for k in range(1, 71):
        code = CodeSpec((2, 2, 2, 3, 3), range(k, 72))
        drawn.clear()
        simulate(SimConfig(code, (1.0,), max_frames=3, target_frame_errors=10, seed=seed))
        u = np.concatenate(drawn)
        for f in range(3):
            want = np.random.default_rng([seed, 0, f]).integers(0, 2, k, dtype=np.uint8)
            assert np.array_equal(u[f, :k], want), (k, f)
            assert not u[f, k:].any()


def test_no_per_frame_seeding(monkeypatch):
    # Building a generator per frame from its seed costs about 20 times
    # the decode of a small frame; simulate and construction hash the
    # seeds of a whole batch at once instead.
    def forbidden(*args, **kwargs):
        raise AssertionError("per-frame seeding")

    class NoIntegers(np.random.Generator):
        integers = forbidden

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np.random, "Generator", NoIntegers)
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    result = simulate(SimConfig(code, (0.0, 3.0), max_frames=300, target_frame_errors=20, seed=5))
    assert sum(p.frames for p in result.points) > 40
    assert len(construct_frozen_mc((2, 2, 3), 6, 1.0, 50, 5)) == 6


def test_sim_config_validation():
    code = CodeSpec((2, 2), (0,))
    with pytest.raises(ValueError):
        SimConfig(code, ())
    with pytest.raises(ValueError):
        SimConfig(code, (1.0,), max_frames=0)
    with pytest.raises(ValueError):
        SimConfig(code, (1.0,), target_frame_errors=0)
    with pytest.raises(ValueError):
        SimConfig(code, (1.0,), seed=-1)
    with pytest.raises(ValueError):
        SimConfig(code, (1.0,), mode="fast")


@pytest.mark.parametrize("field,value", [("max_frames", 2.5), ("target_frame_errors", 1.5)] + [
    (field, value) for field in ("max_frames", "target_frame_errors", "seed")
    for value in (np.nan, np.inf, "3", None)])
def test_sim_config_rejects_fractional_counts(field, value):
    # these used to pass and then raise TypeError from range in simulate
    code = CodeSpec((2, 2), (0,))
    with pytest.raises(ValueError):
        SimConfig(code, (1.0,), **{field: value})
    for whole in (3.0, np.int8(3)):
        count = getattr(SimConfig(code, (1.0,), **{field: whole}), field)
        assert count == 3 and type(count) is int


@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, 4000.0, -4000.0, -3230.0])
def test_sim_config_rejects_non_finite_snr_up_front(snr):
    # simulate used to run every earlier point in full before raising
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    with pytest.raises(NonFiniteInput):
        SimConfig(code, (0.0, 1.0, snr))


def test_simulate_is_deterministic():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    cfg = dict(snr_points_db=(0.0, 2.0), max_frames=200, target_frame_errors=20)
    a = simulate(SimConfig(code, seed=7, **cfg))
    b = simulate(SimConfig(code, seed=7, **cfg))
    for pa, pb in zip(a.points, b.points):
        assert (pa.frames, pa.frame_errors, pa.bit_errors) == (
            pb.frames,
            pb.frame_errors,
            pb.bit_errors,
        )
        assert pa.fer == pb.fer and pa.ber == pb.ber


def test_simulate_noiseless_has_no_errors():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    res = simulate(
        SimConfig(code, (0.0,), max_frames=50, noiseless=True)
    )
    point = res.points[0]
    assert point.frames == 50
    assert point.frame_errors == 0 and point.bit_errors == 0
    assert point.fer == 0.0 and point.ber == 0.0


def test_simulate_stops_at_target_errors():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    res = simulate(
        SimConfig(
            code, (-10.0,), max_frames=5000, target_frame_errors=5, seed=3
        )
    )
    point = res.points[0]
    assert point.frame_errors == 5
    assert point.frames < 5000
    assert point.fer == point.frame_errors / point.frames


def test_simulate_rate_zero_code():
    code = CodeSpec((2, 2), (0, 1, 2, 3))
    res = simulate(SimConfig(code, (0.0,), max_frames=10))
    assert res.points[0].frames == 10
    assert res.points[0].fer == 0.0 and res.points[0].ber == 0.0


def test_csv_output_shape():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    res = simulate(
        SimConfig(code, (0.0, 4.0), max_frames=30, target_frame_errors=5)
    )
    lines = res.to_csv().strip().split("\n")
    assert lines[0] == CSV_HEADER == "ebn0_db,frames,frame_errors,bit_errors,fer,ber"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) == res.points[0].frames


def test_ml_oracle_guard():
    with pytest.raises(TooLarge):
        ml_oracle_decode(CodeSpec((2,) * 5), np.zeros(32))


def test_ml_oracle_noiseless_recovers_message():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = np.zeros(12, dtype=np.uint8)
        u[list(code.info)] = rng.integers(0, 2, 6)
        llrs = LLR_MAX * (1.0 - 2.0 * encode(code, u))
        assert np.array_equal(ml_oracle_decode(code, llrs), u)


def test_ml_oracle_tie_breaks_to_smallest_message():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    assert not ml_oracle_decode(code, np.zeros(12)).any()


def test_ml_oracle_never_scores_below_sc():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    rng = np.random.default_rng(8)

    def score(u, llrs):
        return float((1.0 - 2.0 * encode(code, u)) @ llrs)

    for _ in range(25):
        llrs = rng.uniform(-4, 4, 12)
        best = ml_oracle_decode(code, llrs)
        sc = decode(code, llrs).u_hat
        sc[list(code.frozen)] = 0
        assert score(best, llrs) >= score(sc, llrs) - 1e-12


def test_sc_oracle_guards():
    big = CodeSpec((2,) * 5)
    with pytest.raises(TooLarge):
        exact_sc_oracle_llr(big, np.zeros(32), 0, ())
    code = CodeSpec((2, 3))
    with pytest.raises(LengthMismatch):
        exact_sc_oracle_llr(code, np.zeros(6), 2, (0,))
    with pytest.raises(IndexOutOfRange):
        exact_sc_oracle_llr(code, np.zeros(6), 6, np.zeros(6, dtype=np.uint8))


def test_sc_oracle_single_t2_kernel():
    code = CodeSpec((2,))
    rng = np.random.default_rng(21)
    for _ in range(20):
        a, b = rng.uniform(-5, 5, 2)
        got0 = exact_sc_oracle_llr(code, [a, b], 0, ())
        assert got0 == pytest.approx(float(f_exact(a, b)), abs=1e-10)
        for u0 in (0, 1):
            got1 = exact_sc_oracle_llr(code, [a, b], 1, (u0,))
            assert got1 == pytest.approx(b + (1 - 2 * u0) * a, abs=1e-10)


def test_sc_oracle_single_t3_kernel_matches_brute_force():
    code = CodeSpec((3,))
    rng = np.random.default_rng(22)
    for _ in range(20):
        llrs = rng.uniform(-5, 5, 3)
        for i in range(3):
            for prefix_bits in np.ndindex(*(2,) * i):
                got = exact_sc_oracle_llr(code, llrs, i, prefix_bits)
                want = kernel_marginal_llr(T3, i, llrs, prefix_bits)
                assert got == pytest.approx(want, abs=1e-10)
