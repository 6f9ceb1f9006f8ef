"""AWGN Monte-Carlo harness.

BPSK mapping is symbol = 1 - 2*bit; with Eb/N0 given in dB and code rate
R = K/N the noise variance is sigma^2 = 1 / (2 * R * 10^(Eb/N0 / 10)) and
the channel LLR of an observation y is 2*y / sigma^2, saturated to
+-LLR_MAX. Frame f of SNR point n draws from a generator seeded with
(seed, n, f), so results are reproducible and do not depend on how the
frames are batched.
"""

import time
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .codes import CodeSpec, encode
from .decoder import BATCH_LLR_ENTRIES, decode_batch
from .errors import InvalidRate, LengthMismatch, NonFiniteInput
from .kernels import LLR_MAX, _is_whole, check_mode


def awgn_llrs(codeword_bits, ebn0_db: float, rate: float, rng, noiseless: bool = False):
    """Transmit codewords over BPSK/AWGN and return channel LLRs.

    ``codeword_bits`` is one codeword, or an (F, N) batch of them. ``rng``
    is one Generator, or for a batch a sequence of F generators: row f
    then draws its noise from ``rng[f]`` alone, exactly as the single
    codeword would. With ``noiseless`` the channel is bypassed and each
    bit maps straight to +-LLR_MAX with the sign of its BPSK symbol.
    Bits other than 0 and 1 raise ValueError.
    """
    bits = np.asarray(codeword_bits)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("codeword bits must be 0 or 1")
    if not 0.0 < rate <= 1.0:
        raise InvalidRate(f"rate {rate} outside (0, 1]")
    if not np.isfinite(ebn0_db):
        raise NonFiniteInput(f"Eb/N0 of {ebn0_db} dB is not finite")
    symbols = 1.0 - 2.0 * bits
    if noiseless:
        return symbols * LLR_MAX
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    scale = np.sqrt(sigma2)
    if isinstance(rng, np.random.Generator):
        noise = rng.normal(0.0, scale, size=bits.shape)
    else:
        if bits.ndim != 2 or len(rng) != bits.shape[0]:
            raise LengthMismatch(f"{len(rng)} generators for codewords of shape {bits.shape}")
        noise = np.reshape([r.normal(0.0, scale, size=bits.shape[1]) for r in rng], bits.shape)
    y = symbols + noise
    return np.clip(2.0 * y / sigma2, -LLR_MAX, LLR_MAX)


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
        if not np.isfinite(self.snr_points_db).all():
            raise NonFiniteInput(f"SNR points {self.snr_points_db} are not all finite")
        for name in ("max_frames", "target_frame_errors", "seed"):
            value = getattr(self, name)
            if not _is_whole(value):
                raise ValueError(f"{name} = {value!r} is not an integer")
            setattr(self, name, int(value))
        if self.max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        if self.target_frame_errors < 1:
            raise ValueError("target_frame_errors must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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
    rate = k / code.N if k else 1.0
    cap = max(1, BATCH_LLR_ENTRIES // code.N)
    target = config.target_frame_errors
    result = SimResult()
    for point_index, ebn0_db in enumerate(config.snr_points_db):
        start = time.perf_counter()
        frames = frame_errors = bit_errors = 0
        while frames < config.max_frames and frame_errors < target:
            batch = _batch_frames(frames, frame_errors, target)
            batch = min(batch, config.max_frames - frames, cap)
            rngs = [
                np.random.default_rng([config.seed, point_index, f])
                for f in range(frames, frames + batch)
            ]
            u = np.zeros((batch, code.N), dtype=np.uint8)
            if k:
                u[:, info] = [rng.integers(0, 2, size=k, dtype=np.uint8) for rng in rngs]
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
