"""AWGN Monte-Carlo harness.

BPSK mapping is symbol = 1 - 2*bit; with Eb/N0 given in dB and code rate
R = K/N the noise variance is sigma^2 = 1 / (2 * R * 10^(Eb/N0 / 10)) and
the channel LLR of an observation y is 2*y / sigma^2, saturated to
+-LLR_MAX. Frame f of SNR point n draws from exactly
np.random.default_rng([seed, n, f]), so with kernels of size 2 and 3,
those of every code file, results do not depend on how the frames are
batched (kernels.llr_candidate_steps has the caveat for larger
kernels); the generators of a batch come from one vectorized pass of
numpy's SeedSequence hash (O'Neill's seed_seq_fe).
"""

import time
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .codes import CodeSpec, encode
from .decoder import BATCH_LLR_ENTRIES, decode_batch
from .errors import InvalidRate, LengthMismatch, NonFiniteInput
from .kernels import LLR_MAX, _whole, check_mode

# numpy's SeedSequence: pool words, word mask and mix multipliers.
_POOL, _M32, _MIX_L, _MIX_R = 4, 0xFFFFFFFF, np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(x, const, mult=0x931E8875):
    """One SeedSequence hash step on uint32 words; returns the next constant too."""
    nxt = const * mult & _M32
    x = (x ^ np.uint32(const)) * np.uint32(nxt)
    return x ^ x >> np.uint32(16), nxt


def _pcg64_seeds(words):
    """SeedSequence(entropy).generate_state(4, np.uint64) of many entropies
    at once, one row each; words[i] holds word i of every entropy."""
    words = words + [np.zeros_like(words[0])] * (_POOL - len(words))
    pool, c = [], 0x43B0D7E5
    for w in words[:_POOL]:
        h, c = _hash(w, c)
        pool.append(h)
    for src in range(len(words)):
        for dst in range(_POOL):
            if src != dst:
                h, c = _hash(pool[src] if src < _POOL else words[src], c)
                r = _MIX_L * pool[dst] - _MIX_R * h
                pool[dst] = r ^ r >> np.uint32(16)
    state, c = np.empty((len(words[0]), 2 * _POOL), "<u4"), 0x8B51F9DD
    for i in range(2 * _POOL):
        state[:, i], c = _hash(pool[i % _POOL], c, 0x58F38DED)
    return state.view("<u8").astype(np.uint64, copy=False)


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
    words = [np.full(count, w, np.uint32) for w in head] + [frames.astype(np.uint32)]
    words += [(frames >> np.uint64(32)).astype(np.uint32)] if first >> 32 else []
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
    if not np.isin(bits, (0, 1)).all():
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
    target - frame_errors more frames. Beyond that, it takes half of what
    the frame error rate counted so far predicts, so the frames past the
    target that a batch decodes and does not count stay few. While no
    error has been counted, the batches double.
    """
    floor = target - frame_errors
    if not frame_errors:
        return max(floor, frames)
    return max(floor, ceil(floor * frames / frame_errors / 2))


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
        frames = frame_errors = bit_errors = 0
        while frames < config.max_frames and frame_errors < target:
            batch = _batch_frames(frames, frame_errors, target)
            batch = min(batch, config.max_frames - frames, cap)
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
            )
        )
    return result
