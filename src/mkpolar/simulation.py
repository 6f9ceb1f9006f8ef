"""AWGN Monte-Carlo harness.

BPSK mapping is symbol = 1 - 2*bit; with Eb/N0 given in dB and code rate
R = K/N the noise variance is sigma^2 = 1 / (2 * R * 10^(Eb/N0 / 10)) and
the channel LLR of an observation y is 2*y / sigma^2, saturated to
+-LLR_MAX. Frame f of SNR point n draws from exactly
np.random.default_rng([seed, n, f]), so with kernels of size 2 and 3,
those of every code file, results do not depend on how the frames are
batched (kernels.llr_candidate_steps has the caveat for larger kernels).
A batch's generators come from one pass of numpy's SeedSequence hash
(O'Neill's seed_seq_fe) over (pool word, frame) arrays, and its size
from the errors counted so far (_batch_frames).
"""

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, sqrt

import numpy as np

from .codes import CodeSpec, encode
from .decoder import BATCH_LLR_ENTRIES, decode_batch
from .errors import InvalidRate, LengthMismatch, NonFiniteInput
from .kernels import LLR_MAX, _all_bits, _whole, check_mode

# numpy's SeedSequence: pool words, word mask and mix multipliers.
_POOL, _M32, _MIX_L, _MIX_R = 4, 0xFFFFFFFF, np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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
    zero-padded to 4 words as SeedSequence pads. Steps work on (pool word, entropy) arrays."""
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


def _frame_generators(key, first: int, count: int) -> list:
    """Generators equal to np.random.default_rng([*key, f]) for f in
    first .. first + count - 1, seeded by one hash over the batch."""
    if first < 1 << 32 < first + count:  # frames from 2**32 on take two words
        split = (1 << 32) - first
        return _frame_generators(key, first, split) + _frame_generators(key, 1 << 32, count - split)
    head = [k >> b & _M32 for k in map(int, key) for b in range(0, max(k.bit_length(), 1), 32)]
    frames = np.arange(first, first + count, dtype=np.uint64)
    rows = head + [frames & _M32] + ([frames >> 32] if first >> 32 else [])
    words = np.zeros((max(len(rows), _POOL), count), np.uint32)
    for i, row in enumerate(rows):
        words[i] = row
    return [np.random.Generator(np.random.PCG64(_Seeded(s))) for s in _pcg64_seeds(words)]


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
    is one Generator, or for a batch a sequence of F generators: row f
    then draws its noise from ``rng[f]`` alone, exactly as the single
    codeword would. With ``noiseless`` the channel is bypassed and each
    bit maps straight to +-LLR_MAX with the sign of its BPSK symbol.
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
    else:
        if bits.ndim != 2 or len(rng) != bits.shape[0]:
            raise LengthMismatch(f"{len(rng)} generators for codewords of shape {bits.shape}")
        noise = np.empty(bits.shape)
        for r, row in zip(rng, noise):
            r.standard_normal(out=row)
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
    batches: int  # decode_batch calls
    decoded_frames: int  # frames decoded, those past the stop included


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
    past the target, which are not counted; a batch costs about 75 N = 12
    frames however few it holds. While no error is counted, batches double.
    """
    floor = target - frame_errors
    if not frame_errors:
        return max(floor, frames)
    return max(floor, ceil(floor * frames / (frame_errors + sqrt(frame_errors))))


def simulate(config: SimConfig) -> SimResult:
    """Run the Monte-Carlo sweep described by `config`.

    Frames are drawn, encoded and decoded in batches, and counted one by
    one in order, so each point stops at exactly the frame where it
    reaches target_frame_errors or max_frames.
    """
    code = config.code
    info = np.asarray(code.info, dtype=np.int64)
    k = code.K
    words = -(-k // 8)  # raw words per frame: one information bit per byte
    rate = _rate(k, code.N)
    cap = max(1, BATCH_LLR_ENTRIES // code.N)
    target = config.target_frame_errors
    result = SimResult()
    for point_index, ebn0_db in enumerate(config.snr_points_db):
        start = time.perf_counter()
        frames = frame_errors = bit_errors = batches = decoded = 0
        while frames < config.max_frames and frame_errors < target:
            batch = _batch_frames(frames, frame_errors, target)
            batch = min(batch, config.max_frames - frames, cap)
            batches, decoded = batches + 1, decoded + batch
            rngs = _frame_generators((config.seed, point_index), frames, batch)
            u = np.zeros((batch, code.N), dtype=np.uint8)
            if k:
                # as integers(0, 2, k, uint8): the top bits of the first k raw bytes
                raw = np.fromiter((rng.bit_generator.random_raw(words) for rng in rngs), (np.uint64, words), batch)
                u[:, info] = raw.astype("<u8", copy=False).view(np.uint8)[:, :k] >> 7
            llrs = awgn_llrs(encode(code, u), ebn0_db, rate, rngs, noiseless=config.noiseless)
            u_hat = decode_batch(code, llrs, config.mode).u_hat
            wrong = np.count_nonzero(u_hat[:, info] != u[:, info], axis=1)
            for w in wrong.tolist():
                frames += 1
                if w:
                    frame_errors += 1
                    bit_errors += w
                    if frame_errors == target:
                        break
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
            )
        )
    return result
