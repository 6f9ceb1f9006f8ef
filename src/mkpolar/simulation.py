"""AWGN Monte-Carlo harness.

BPSK mapping is symbol = 1 - 2*bit; with Eb/N0 given in dB and code rate
R = K/N the noise variance is sigma^2 = 1 / (2 * R * 10^(Eb/N0 / 10)) and
the channel LLR of an observation y is 2*y / sigma^2, saturated to
+-LLR_MAX. Frame f of SNR point n draws from exactly
np.random.default_rng([seed, n, f]): its message bits, what that
generator's integers(0, 2, K, np.uint8) returns, then its noise. So
results do not depend on how the frames are batched.
Two vectorized passes serve a whole batch: numpy's SeedSequence hash
(O'Neill's seed_seq_fe) over (pool word, frame) arrays gives every
frame's PCG64 seed words (_frame_seeds), and a jump-ahead of the PCG64
LCG over (draw, frame) arrays gives every frame's message words
(_draw_words). Up to _ZIGGURAT_NORMALS normals per frame, the same
jump-ahead, in the same call, gives every frame's noise words after
them, and the 98.5% of numpy's ziggurat draws that take one word are
formed from them at once (_frame_normals); a frame with another draw,
and every frame of a longer code, is drawn by its own generator, built
inside its row of the noise (_frame_generators), so a batch holds one
generator at a time and a noiseless run builds none. A batch's size comes
from the errors counted so far (_batch_frames).

What a frame of a batch at the entry cap costs, in us, measured in exact
mode at 1 dB with the frozen sets of the benchmark's decode-paper
workload, on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4): the least of
7 medians of 5 batches, in two processes. The seed hash is
_frame_seeds'. The raw words are the jump-ahead and the message bits
taken from it, at N = 12 with the noise words. The channel is
awgn_llrs, generators included: at N = 12 those of the ~16% of frames
drawn again whole, built and drawn, at N >= 144 one per frame, of which
the column gives the building alone. Decode is simulate's decisions walk
(decoder._decisions). Per frame, the calls these replaced cost 3.1-3.4,
17-22 and 13 us for default_rng, 1.2-2.2 us for each generator's
random_raw, 3.0 us at N = 12 for a generator and a standard_normal call,
and 0.4-0.6, 9.6-13 and 74-98 us for the tensordot encoder that
kernels.product_steps replaced.

    N (F)      seed hash  raw words  encode     channel    generators  decode
    12 (5461)  0.06       0.40-0.42  0.13       0.55-0.57  0.35        0.39-0.40
    144 (455)  0.27-0.28  0.53-0.55  2.79-2.85  4.3-4.5    1.35-1.47   13.1-13.6
    972 (67)   1.7-1.9    3.0-3.3    22-23      18.6-19.1  1.6-1.8     177-189
"""

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, sqrt

import numpy as np

from .codes import CodeSpec, encode
from .decoder import BATCH_LLR_ENTRIES, _decisions
from .errors import InvalidRate, LengthMismatch, NonFiniteInput
from .kernels import LLR_MAX, _all_bits, _whole, check_mode

# numpy's SeedSequence: pool words, word mask and mix multipliers.
_POOL, _M32, _MIX_L, _MIX_R = 4, 0xFFFFFFFF, np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier M, a word mask, and uint64 operands of the jump-ahead.
_PCG_MULT, _M64 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 64) - 1
_LOW32, _U1, _U32, _U58, _U63, _U64 = (np.uint64(c) for c in (_M32, 1, 32, 58, 63, 64))
_PCG_INV = pow(_PCG_MULT, -1, 1 << 128)  # M^-1 mod 2**128
# numpy's ziggurat: the base layer's right edge r, the mask of a draw's 52 value bits, and
# the shift and mask of its 9 sign and layer bits.
_ZIGGURAT_R, _M52, _U9, _U511 = 3.6541528853610088, np.uint64(2**52 - 1), np.uint64(9), np.uint64(511)
# Most normals per frame that _frame_normals draws from a batch's raw words at once. Per
# frame of a batch at the entry cap that was 2.2-2.5x as fast as the generators at 12
# normals, 1.4-1.9x at 18, 1.1-1.3x at 24 and 27, even at 30 and slower from 36.
_ZIGGURAT_NORMALS = 27


@lru_cache
def _hash_table(n):
    """(2, n + 3, 4, 1) uint32 xors, then multipliers: row 0 hashes the 4 pool words, row 1 + s
    source word s into each pool word (a dummy for its own), rows n + 1 and n + 2 the 8 outputs."""
    def run(const, mult):  # the constants of successive hash steps
        while True:
            yield const, (const := const * mult & _M32)
    mix, out = run(0x43B0D7E5, 0x931E8875), run(0x8B51F9DD, 0x58F38DED)
    rows = [[next(mix) for _ in range(_POOL)]]
    rows += [[(0, 0) if src == dst else next(mix) for dst in range(_POOL)] for src in range(n)]
    rows += [[next(out) for _ in range(_POOL)] for _ in range(2)]
    return np.array(rows, np.uint32).transpose(2, 0, 1)[..., None]


def _hash(x, xor, mult, out=None):
    """One SeedSequence hash step of uint32 words, each row of x by its own constants."""
    x = x ^ xor
    x *= mult
    return np.bitwise_xor(x, x >> np.uint32(16), out=out)


def _pcg64_seeds(words):
    """SeedSequence(entropy).generate_state(4, np.uint64) of many entropies at
    once, one row each: column f of the (n >= 4, F) uint32 words is entropy f,
    zero-padded to 4 words as SeedSequence pads. Steps work on (pool word, entropy) arrays:
    each source word is hashed against its 3 or 4 destination words in one op, and the 8
    output words in two, with constants tabulated once per word count (_hash_table), about
    60 numpy calls per batch. One word row at a time, about 200 calls, the hash took 0.07,
    0.48-0.51 and 3.0 us per frame at the cap for N = 12, 144 and 972, against the module
    docstring's 0.05, 0.22 and 1.1, and 198-203 us for a one-frame batch against 65-67 us
    (minimum of 7 x 20 calls, two runs). It still costs more per frame in the small batches
    of long codes."""
    xor, mult = _hash_table(len(words))
    pool = _hash(words[:_POOL], xor[0], mult[0])
    for src in range(len(words)):
        # source word src mixed into every pool word but its own
        word = pool[src].copy() if src < _POOL else words[src]
        pool *= _MIX_L
        pool -= _hash(word, xor[1 + src], mult[1 + src]) * _MIX_R
        pool ^= pool >> np.uint32(16)
        if src < _POOL:
            pool[src] = word
    state = np.empty((words.shape[1], 2, _POOL), "<u4")
    for i in (-2, -1):  # as (2, 4, F) at once, its temporaries would cost more at the cap
        _hash(pool, xor[i], mult[i], state[:, i].T)
    return state.reshape(len(state), -1).view("<u8").astype(np.uint64, copy=False)


@dataclass
class _Seeded(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four uint64 seed words its SeedSequence would generate."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _frame_seeds(key, first: int, count: int):
    """The (count, 4) uint64 seed words of np.random.default_rng([*key, f])'s PCG64 for f in
    first .. first + count - 1, from one hash over the batch."""
    if first < 1 << 32 < first + count:  # frames from 2**32 on take two words
        split = (1 << 32) - first
        return np.concatenate((_frame_seeds(key, first, split), _frame_seeds(key, 1 << 32, count - split)))
    head = [k >> b & _M32 for k in map(int, key) for b in range(0, max(k.bit_length(), 1), 32)]
    frames = np.arange(first, first + count, dtype=np.uint64)
    rows = head + [frames & _M32] + ([frames >> 32] if first >> 32 else [])
    words = np.zeros((max(len(rows), _POOL), count), np.uint32)
    for i, row in enumerate(rows):
        words[i] = row
    return _pcg64_seeds(words)


def _frame_generators(seeds):
    """One Generator per row of seed words, each built only when the iteration reaches it.
    The classes are looked up once per call, not once per frame."""
    generator, pcg64, seeded = np.random.Generator, np.random.PCG64, _Seeded
    return (generator(pcg64(seeded(s))) for s in seeds)


@dataclass
class _FrameNoise:
    """The generators of a batch's frames, one per row of seed words, as the iterable that
    awgn_llrs takes. awgn_llrs draws their normals for the whole batch at once
    (_frame_normals), from words, the (F, N) raw words that follow each seed if they were
    drawn already, and adds the frames it drew through a generator to generator_frames."""

    seeds: np.ndarray
    words: np.ndarray = None
    generator_frames: int = 0

    def __iter__(self):
        return _frame_generators(self.seeds)


@lru_cache
def _jump_table(words, position):
    """(2, 4, words + 1, 1) uint64 constants (a, b) of the jumps a s + b inc mod 2**128 that
    _draw_words takes, each as (high word, low word, low word's low and high halves).
    The LCG state after seeding and j - 1 draws is S_j = M^j s + (1 + M + ... + M^j) inc:
    row 0 is S_position - inc, rows 1 .. words are S_2 .. S_(words + 1)."""
    def geometric(j):  # 1 + M + ... + M^(j-1) mod 2**128, as (M^j - 1) / (M - 1)
        return (pow(_PCG_MULT, j, _PCG_MULT - 1 << 128) - 1) // (_PCG_MULT - 1)
    rows = [(pow(_PCG_MULT, position, 1 << 128), geometric(position + 1) - 1)]
    rows += [(pow(_PCG_MULT, j, 1 << 128), geometric(j + 1)) for j in range(2, words + 2)]
    limbs = [[(c >> 64 & _M64, c & _M64, c & _M32, c >> 32 & _M32) for c in col] for col in zip(*rows)]
    return np.array(limbs, np.uint64).transpose(0, 2, 1)[..., None]


def _mul128(high, low, const):
    """(high, low) words of x c mod 2**128, x = (high, low) per frame and c one of _jump_table's per
    row; the low words' high product by 32-bit halves (Warren, Hacker's Delight, 8-2)."""
    c_high, c_low, c0, c1 = const
    x0, x1 = low & _LOW32, low >> _U32
    t = x1 * c0
    t += x0 * c0 >> _U32
    w = t & _LOW32
    w += x0 * c1
    w >>= _U32
    w += x1 * c1
    w += t >> _U32
    w += low * c_high
    w += high * c_low
    return w, low * c_low


def _draw_words(seeds, words: int, position: int = None):
    """The first `words` raw words of the PCG64 seeded by each row of seed words, as a
    (count, words) uint64 array, drawn for all rows at once; each row then becomes the
    seed whose generator starts right after the first `position` of them, by default
    all.

    numpy seeds PCG64 from words (s_high, s_low, q_high, q_low) as inc = 2 q + 1 and state
    S_1 = (s + inc) M + inc, and a draw steps the state S to S M + inc and outputs the XSL-RR
    rotation of its words (O'Neill, HMC-CS-2014-0905). Seeding with S_position - inc lands
    on S_(position + 1), the state after that many words. Every operand is uint64. The constants are
    tabulated once per word count (_jump_table), so the numpy calls do not depend on it.

    At the entry cap the jump-ahead takes about 220-330 us per batch, a fixed number of
    numpy calls over (words + 1) F words. So it gains most in the wide batches of short
    codes; at N = 972 it costs about 1-2 us more per frame than random_raw, under 1% of the
    frame.
    """
    s_high, s_low, q_high, q_low = seeds.T.copy()
    inc_high, inc_low = q_high << _U1 | q_low >> _U63, q_low << _U1 | _U1
    a, b = _jump_table(words, words if position is None else position)
    high, low = _mul128(s_high, s_low, a)
    b_high, b_low = _mul128(inc_high, inc_low, b)
    low += b_low
    high += b_high
    high += low < b_low
    del b_high, b_low  # so the rotation's temporaries do not raise the peak
    seeds[:, 0], seeds[:, 1] = high[0], low[0]
    high, low = high[1:], low[1:]
    low ^= high
    high >>= _U58
    return np.ascontiguousarray((low >> high | low << (_U64 - high & _U63)).T)


@lru_cache
def _ziggurat():
    """(w, k): numpy's standard_normal takes a raw word r to x = rabs w[r & 0x1FF] at once iff
    rabs = r >> 9 & (2**52 - 1) < k[r & 0xFF] (Marsaglia and Tsang, J. Stat. Softw. 2000),
    so w holds each of the 256 layers' widths and then their negatives, for the sign bit 8.

    Both come from numpy itself, through a generator whose next raw word is set: w[i] is the
    draw of rabs = 1 in layer i, and k[i] = floor(2**52 w[i-1] / w[i]) - 2, or
    floor(_ZIGGURAT_R / w[0]) - 2, is kept only if a draw of rabs = k[i] - 1 takes one word,
    and is 0 otherwise, as numpy's own bound is in layer 1. So no bound is above numpy's.
    One batch is then checked against its generators, and a mismatch raises.
    """
    bits = np.random.PCG64(_Seeded(np.zeros(_POOL, np.uint64)))
    gen = np.random.Generator(bits)

    def draw(r):  # the next raw word is r, from the state (r - 1) / M, with inc = 1
        bits.state = {"bit_generator": "PCG64", "state": {"state": (r - 1) * _PCG_INV % (1 << 128), "inc": 1},
                      "has_uint32": 0, "uinteger": 0}
        return gen.standard_normal()

    def one_word(r):
        draw(r)
        return bits.state["state"]["state"] == r

    w = [draw(1 << 9 | i) for i in range(256)]
    k = [min(int(ratio) - 2, 1 << 52) for ratio in [_ZIGGURAT_R / w[0]] + [2**52 * a / b for a, b in zip(w, w[1:])]]
    k = np.array([b if b > 0 and one_word(b - 1 << 9 | i) else 0 for i, b in enumerate(k)] * 2, np.uint64)
    w = np.array(w + [-x for x in w])
    seeds = _frame_seeds((0,), 0, 64)
    got, slow = _ziggurat_draws(_draw_words(seeds.copy(), 4), w, k)
    want = _generator_normals(seeds, 4)
    got[slow] = want[slow]
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        raise RuntimeError("numpy's standard_normal no longer draws by the ziggurat this module reads")
    return w, k


def _ziggurat_draws(r, w, k):
    """The (F, n) normals whose row f the ziggurat's one-word draws (_ziggurat's w and k) give
    from the (F, n) raw words r, which they overwrite, and the rows with a draw that takes
    more words, whose values are then not numpy's."""
    layer = r & _U511
    r >>= _U9
    r &= _M52
    return r * w[layer], np.flatnonzero((r >= k[layer]).any(axis=1))


def _frame_normals(seeds, n: int, words=None):
    """The (F, n) standard normals that the generator of each row of seed words draws first
    (_frame_generators), bit for bit, and how many frames were drawn through that generator.

    Up to _ZIGGURAT_NORMALS normals per frame, the ziggurat's one-word draws come from every
    frame's first n raw words at once (_ziggurat_draws), drawn here unless given as the
    (F, n) words, which they overwrite, and only a frame with another draw is
    drawn again whole by its generator; at N = 12, about 17% of frames. Beyond that, each
    frame is drawn by its generator, whose per-word cost in numpy is below that of the
    batch's emulated words.

    A criterion-10 run (N = 12, 7331 frames) took 2.3-2.4 us per frame (minimum of 5 runs,
    two processes), against 3.4-3.6 us with a generator and a standard_normal call for
    every frame (5.3-6.0 us when that was measured before, 44-45 us with a default_rng per
    frame). 59% of it is draw_s (72% with a generator per frame); 1240 of its 7390 decoded
    frames were drawn by their generators.
    """
    if n > _ZIGGURAT_NORMALS:
        return _generator_normals(seeds, n), len(seeds)
    noise, slow = _ziggurat_draws(_draw_words(seeds.copy(), n) if words is None else words, *_ziggurat())
    noise[slow] = _generator_normals(seeds[slow], n)
    return noise, len(slow)


def _generator_normals(seeds, n: int):
    """The (F, n) standard normals that the generator of each row of seed words draws first."""
    noise = np.empty((len(seeds), n))
    generator, pcg64, seeded = np.random.Generator, np.random.PCG64, _Seeded
    for row, s in zip(noise, seeds):
        generator(pcg64(seeded(s))).standard_normal(out=row)
    return noise


def _noise_variance(ebn0_db, rate):
    """sigma^2 at ebn0_db dB and rate; NonFiniteInput unless it and 2 / sigma^2 are finite and positive."""
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10 ** (Eb/N0 / 10) overflows or is 0
        sigma2 = 0.0
    if not (0.0 < sigma2 < np.inf and 2.0 / sigma2 < np.inf):
        raise NonFiniteInput(f"Eb/N0 of {ebn0_db} dB gives no finite noise variance and LLR scale")
    return sigma2


def _rate(k, n):
    """The code rate K / N, and 1.0 for K = 0, whose Eb/N0 has no information bit to refer to."""
    return k / n if k else 1.0


def awgn_llrs(codeword_bits, ebn0_db: float, rate: float, rng, noiseless: bool = False):
    """Transmit codewords over BPSK/AWGN and return channel LLRs.

    ``codeword_bits`` is one codeword, or an (F, N) batch of them. ``rng``
    is one Generator, or for a batch an iterable of exactly F generators
    (LengthMismatch otherwise), taken one row at a time: row f draws its
    noise from the f-th generator alone, exactly as the single codeword
    would. With ``noiseless`` the channel is bypassed, no generator is
    taken, and each bit maps straight to +-LLR_MAX with the sign of its
    BPSK symbol.
    Bits other than 0 and 1 raise ValueError, and an Eb/N0 with no finite
    positive sigma^2 and 2 / sigma^2 (such as NaN or 4000 dB) NonFiniteInput.
    """
    bits = np.asarray(codeword_bits)
    if not _all_bits(bits):
        raise ValueError("codeword bits must be 0 or 1")
    if not 0.0 < rate <= 1.0:
        raise InvalidRate(f"rate {rate} outside (0, 1]")
    sigma2 = _noise_variance(ebn0_db, rate)
    symbols = 1.0 - 2.0 * bits
    if noiseless:
        return symbols * LLR_MAX
    # normal(0, s) draws 0 + s z from standard_normal's z; the 0 + is
    # lost once the noise is added to +-1
    if isinstance(rng, np.random.Generator):
        noise = rng.standard_normal(bits.shape)
    elif isinstance(rng, _FrameNoise) and bits.ndim == 2 and len(bits) == len(rng.seeds):
        noise, drawn = _frame_normals(rng.seeds, bits.shape[1], rng.words)
        rng.generator_frames += drawn
    else:
        if bits.ndim != 2:
            raise LengthMismatch(f"generators for codewords of shape {bits.shape}")
        noise, rngs = np.empty(bits.shape), iter(rng)
        for f, row in enumerate(noise):
            if (r := next(rngs, None)) is None:
                raise LengthMismatch(f"{f} generators for {len(noise)} codewords")
            r.standard_normal(out=row)
        if next(rngs, None) is not None:
            raise LengthMismatch(f"more than {len(noise)} generators for {len(noise)} codewords")
    # in place, in the order of clip(2 (symbols + noise sigma) / sigma^2)
    noise *= np.sqrt(sigma2)
    noise += symbols
    noise *= 2.0
    noise /= sigma2
    return np.clip(noise, -LLR_MAX, LLR_MAX, out=noise)


@dataclass
class SimConfig:
    """Monte-Carlo run description.

    Each SNR point stops at target_frame_errors frame errors or at
    max_frames, whichever comes first.
    """

    code: CodeSpec
    snr_points_db: tuple
    max_frames: int = 10000
    target_frame_errors: int = 100
    seed: int = 0
    mode: str = "exact"
    noiseless: bool = False

    def __post_init__(self):
        self.snr_points_db = tuple(float(x) for x in self.snr_points_db)
        if not self.snr_points_db:
            raise ValueError("at least one SNR point is required")
        for ebn0_db in self.snr_points_db:
            _noise_variance(ebn0_db, _rate(self.code.K, self.code.N))
        for name, least in (("max_frames", 1), ("target_frame_errors", 1), ("seed", 0)):
            setattr(self, name, _whole(getattr(self, name), name, least))
        check_mode(self.mode)


@dataclass
class SnrPointResult:
    ebn0_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    elapsed_s: float
    batches: int  # decoder calls, one per batch
    decoded_frames: int  # frames decoded, those past the stop included
    draw_s: float  # seeds, message words and channel
    encode_s: float
    decode_s: float  # decoder._decisions, decode_batch's decisions alone
    generator_frames: int  # decoded frames whose noise a generator drew (_frame_normals)


CSV_HEADER = "ebn0_db,frames,frame_errors,bit_errors,fer,ber"


@dataclass
class SimResult:
    points: list = field(default_factory=list)

    def to_csv(self) -> str:
        """Delimited summary, one row per SNR point (elapsed excluded)."""
        lines = [CSV_HEADER]
        for p in self.points:
            lines.append(
                f"{p.ebn0_db},{p.frames},{p.frame_errors},{p.bit_errors},{p.fer},{p.ber}"
            )
        return "\n".join(lines) + "\n"


def _batch_frames(frames: int, frame_errors: int, target: int) -> int:
    """How many frames an SNR point decodes next.

    No frame adds more than one error, so the point needs at least
    target - frame_errors more frames. Beyond that, it takes the frames
    that the count so far predicts for the rest, counting the errors one
    Poisson standard deviation high, so a batch seldom decodes many frames
    past the target, which are not counted; a batch costs about 145-195
    N = 12 frames however few it holds. While no error is counted, batches double.
    simulate caps a batch at BATCH_LLR_ENTRIES / N frames. Frames past the
    stop are decoded but not counted, so the CSV does not depend on the rule.

    The rule trades a few uncounted frames for fewer batches. On the
    benchmark's full simulation ((2,2,3) at 0 and 4 dB to 100 errors, seeds
    1-8) it took 66 batches and decoded 54,620 frames for 53,363 counted,
    where asking for half the predicted frames took 141 batches and 53,555
    frames. A prediction from very few errors can still overshoot: with the
    code of `mkpolar construct --kernels 2,2,3 --k 6 --snr 1.0 --frames 1000
    --seed 0`, the 2 dB point of `mkpolar simulate --snr 0:1:4
    --target-errors 100` counts 2 errors in its first 100 frames, which size
    its second batch at 2871 frames (the halved rule asked for 2450), so it
    decodes 2971 frames to count 1309.
    """
    floor = target - frame_errors
    if not frame_errors:
        return max(floor, frames)
    return max(floor, ceil(floor * frames / (frame_errors + sqrt(frame_errors))))


def simulate(config: SimConfig) -> SimResult:
    """Run the Monte-Carlo sweep described by `config`.

    Frames are drawn, encoded and decoded in batches, and counted in
    frame order, so each point stops at exactly the frame where it
    reaches target_frame_errors or max_frames.
    """
    code = config.code
    info = np.asarray(code.info, dtype=np.int64)
    k = code.K
    words = -(-k // 8)  # raw words per frame: one information bit per byte
    # the raw noise words per frame drawn with them, in one jump-ahead (_frame_normals)
    noise_words = 0 if config.noiseless or code.N > _ZIGGURAT_NORMALS else code.N
    rate = _rate(k, code.N)
    cap = max(1, BATCH_LLR_ENTRIES // code.N)
    target = config.target_frame_errors
    result = SimResult()
    for point_index, ebn0_db in enumerate(config.snr_points_db):
        start = time.perf_counter()
        frames = frame_errors = bit_errors = batches = decoded = 0
        draw_s = encode_s = decode_s = 0.0
        generator_frames = 0
        while frames < config.max_frames and frame_errors < target:
            batch = _batch_frames(frames, frame_errors, target)
            batch = min(batch, config.max_frames - frames, cap)
            batches, decoded = batches + 1, decoded + batch
            t0 = time.perf_counter()
            seeds = _frame_seeds((config.seed, point_index), frames, batch)
            u = np.zeros((batch, code.N), dtype=np.uint8)
            # each seed left right after the message words, for frames drawn again by generator
            raw = _draw_words(seeds, words + noise_words, words) if words + noise_words else None
            if k:
                # as integers(0, 2, k, uint8): the top bits of the first k raw bytes
                u[:, info] = raw.astype("<u8", copy=False).view(np.uint8)[:, :k] >> 7
            t1 = time.perf_counter()
            codewords = encode(code, u)
            t2 = time.perf_counter()
            noise = _FrameNoise(seeds, raw[:, words:] if noise_words else None)
            llrs = awgn_llrs(codewords, ebn0_db, rate, noise, noiseless=config.noiseless)
            generator_frames += noise.generator_frames
            t3 = time.perf_counter()
            u_hat = _decisions(code, llrs, config.mode)
            t4 = time.perf_counter()
            draw_s, encode_s, decode_s = draw_s + (t1 - t0) + (t3 - t2), encode_s + (t2 - t1), decode_s + (t4 - t3)
            wrong = np.count_nonzero(u_hat[:, info] != u[:, info], axis=1)
            errors = np.cumsum(wrong > 0)
            # the frames up to the one that reaches the target, or all
            used = min(int(np.searchsorted(errors, target - frame_errors)) + 1, batch)
            frames += used
            frame_errors += int(errors[used - 1])
            bit_errors += int(wrong[:used].sum())
        result.points.append(
            SnrPointResult(
                ebn0_db=ebn0_db,
                frames=frames,
                frame_errors=frame_errors,
                bit_errors=bit_errors,
                fer=frame_errors / frames,
                ber=bit_errors / (frames * k) if k else 0.0,
                elapsed_s=time.perf_counter() - start,
                batches=batches, decoded_frames=decoded,
                draw_s=draw_s, encode_s=encode_s, decode_s=decode_s, generator_frames=generator_frames,
            )
        )
    return result
