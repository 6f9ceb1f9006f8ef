"""Multi-kernel polar code definitions.

A code of length N = p_1 * ... * p_s is built from a kernel sequence
(T_{p_1}, ..., T_{p_s}); its generator is the Kronecker product
G_N = T_{p_1} x ... x T_{p_s}. Bit index i is identified with its
mixed-radix digits (b_1, ..., b_s), b_1 most significant:

    i = b_s + sum_{j<s} b_j * (p_{j+1} * ... * p_s).

Kernel order is significant: <2,3> and <3,2> are different codes.
"""

from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .errors import (
    CodeFileError,
    FrozenViolation,
    IndexOutOfRange,
    InvalidK,
    LengthMismatch,
    UnsupportedKernelSize,
)
from .kernels import KernelMatrix, _all_bits, _whole, builtin_kernel, product_steps


def _kernel_size(k):
    """The size of a KernelMatrix, or k itself if it is a whole number of at least 2."""
    return k.p if isinstance(k, KernelMatrix) else _whole(k, "kernel size", 2, UnsupportedKernelSize)


def _as_kernels(kernels):
    out = []
    for k in kernels:
        out.append(k if isinstance(k, KernelMatrix) else builtin_kernel(_kernel_size(k)))
    if not out:
        raise ValueError("kernel sequence must be non-empty")
    return tuple(out)


class CodeSpec:
    """A multi-kernel polar code: kernel sequence plus frozen set.

    Parameters
    ----------
    kernels : sequence
        Kernel sizes (2 or 3 resolve to the built-in kernels) or
        KernelMatrix instances, outermost first.
    frozen : iterable of int
        Indices of frozen input bits, each in [0, N). The information
        set is the ascending complement.

    Attributes
    ----------
    N : int
        Code length, product of the kernel sizes.
    K : int
        Information length, N - |frozen|.
    frozen : tuple
        Sorted frozen indices.
    info : tuple
        Sorted information indices.
    """

    def __init__(self, kernels, frozen=()):
        self.kernels = _as_kernels(kernels)
        self.bases = tuple(k.p for k in self.kernels)
        self.N = prod(self.bases)
        frozen = list(frozen)
        for f in frozen:
            if not 0 <= _whole(f, "frozen index") < self.N:
                raise IndexOutOfRange(f"frozen index {f} outside [0, {self.N})")
        frozen = [int(f) for f in frozen]
        if len(set(frozen)) != len(frozen):
            raise ValueError("frozen set contains duplicates")
        self.frozen = tuple(sorted(frozen))
        self.K = self.N - len(self.frozen)
        mask = np.zeros(self.N, dtype=bool)
        mask[list(self.frozen)] = True
        mask.flags.writeable = False
        self.frozen_mask = mask
        self.info = tuple(int(i) for i in np.flatnonzero(~mask))

    @property
    def s(self) -> int:
        return len(self.bases)

    @cached_property
    def digit_table(self):
        """(N, s) array, row i holds the mixed-radix digits of i."""
        return np.stack(np.unravel_index(np.arange(self.N), self.bases), axis=1)

    @cached_property
    def start_stages(self):
        """First stage that bit i refreshes, for every i, as an int array.

        That is the 1-based position of the rightmost nonzero digit of i,
        and 1 for i = 0, where every stage refreshes.
        """
        nonzero = self.digit_table != 0
        out = np.ones(self.N, dtype=np.int64)
        for j in range(self.s):
            out[nonzero[:, j]] = j + 1
        return out

    @cached_property
    def permutation(self):
        """Slot of each codeword position in the stage-0 LLR vector."""
        return channel_permutation(self.bases)

    @cached_property
    def channel_order(self):
        """Codeword position of each slot of the stage-0 LLR vector, the
        inverse of permutation (digit reversal undone is digit reversal
        under the reversed bases): ingesting is one take through it."""
        return channel_permutation(self.bases[::-1])

    def __repr__(self):
        return f"CodeSpec(bases={self.bases}, N={self.N}, K={self.K})"


def channel_permutation(kernels):
    """Digit-reversal ingestion order for channel LLRs.

    Codeword position j with digits (c_1, ..., c_s) maps to slot
    pi(j) = sum_k c_k * (p_1 * ... * p_{k-1}), the index of the reversed
    digits (c_s, ..., c_1) under the reversed bases. This is exactly the
    ordering under which every stage's kernel blocks read contiguous
    groups of the previous stage vector. Any whole size of at least 2 works.
    """
    bases = tuple(_kernel_size(k) for k in kernels)
    if not bases:
        raise ValueError("kernel sequence must be non-empty")
    return np.arange(prod(bases)).reshape(bases[::-1]).T.reshape(-1)


def encode(code: CodeSpec, u):
    """Encode input vectors: return x = u * G_N over GF(2).

    ``u`` is one length-N input vector, or an (F, N) batch of them, one
    per row. Each kernel in turn is applied by kernels.product_steps on an
    (F * A, B, p) view; the generator matrix is never materialized. Frozen
    positions of u must be zero (FrozenViolation otherwise). Output is a
    fresh C-contiguous uint8 array in natural order, with the shape of u.
    """
    u = np.asarray(u)
    if u.ndim not in (1, 2) or u.shape[-1] != code.N:
        raise LengthMismatch(f"expected {code.N} input bits per row, got shape {u.shape}")
    if not _all_bits(u):
        raise ValueError("input bits must be 0 or 1")
    u = u.astype(np.uint8, order="C")  # a copy, also of uint8 input
    if u[..., code.frozen_mask].any():
        bad = int(np.flatnonzero(u & code.frozen_mask)[0]) % code.N
        raise FrozenViolation(f"nonzero bit on frozen position {bad}")
    x, y, inner = u, np.empty_like(u), code.N
    for kern in code.kernels:  # stage views (F * A, B, p), A * p * B = N
        inner //= kern.p
        for fn, args in product_steps(kern, *(t.reshape(-1, kern.p, inner).swapaxes(1, 2) for t in (x, y))):
            fn(*args)
        x, y = y, x
    return x


# A genie-aided decision LLR within this distance of 0 is a tie.
GENIE_TIE_TOL = 1e-12


@lru_cache(maxsize=32)
def _all_frozen(kernels):
    """The all-frozen code of a kernel sequence, built once. decode_batch
    finds its program by the frozen tuple, so a fresh code would find it as
    well; the cache only saves building the code, 47-48 us at N = 144
    against 0.61-0.66 ms for a 40-frame construction."""
    return CodeSpec(kernels, range(prod(k.p for k in kernels)))


def construct_frozen_mc(kernels, k: int, design_snr_db: float, frames: int, seed: int):
    """Pick the frozen set by genie-aided Monte-Carlo at a design SNR.

    The all-zero codeword is sent over AWGN `frames` times; a genie-aided
    SC pass scores per bit position how often the decision LLR argues for
    the wrong bit while all previous decisions are forced correct: the
    exact-mode decode of the all-frozen code, which folds whole (decoder
    module docstring), so its SC program is one zero-prefix pass per
    stage and one take. Each batch is scored from the (F, N) final LLRs
    that decode_batch returns for that code.
    A negative decision LLR scores a whole error, one within GENIE_TIE_TOL
    of 0 half an error: such a bit carries no information, whatever sign
    rounding gives it. The N - k positions with the highest scores are
    frozen, ties broken toward the lower index. Frame f draws from its own
    generator, exactly np.random.default_rng([seed, f]), so the result does
    not depend on how frames are batched, and no two seeds share a frame's noise.
    """
    from .decoder import BATCH_LLR_ENTRIES, decode_batch
    from .simulation import _FrameNoise, _frame_seeds, _noise_variance, _rate, awgn_llrs

    kernels = _as_kernels(kernels)
    n = prod(kern.p for kern in kernels)
    k, frames, seed = _whole(k, "k"), _whole(frames, "frames", 1), _whole(seed, "seed", 0)
    if not 0 <= k <= n:
        raise InvalidK(f"K = {k} outside [0, {n}]")
    rate = _rate(k, n)
    _noise_variance(design_snr_db, rate)  # NonFiniteInput before any frame
    if k == n:
        return ()
    if k == 0:
        return tuple(range(n))
    code, scores = _all_frozen(kernels), np.zeros(n, dtype=np.int64)
    batch = max(1, BATCH_LLR_ENTRIES // n)
    for start in range(0, frames, batch):
        count = min(frames - start, batch)
        rngs = _FrameNoise(_frame_seeds((seed,), start, count))
        llrs = awgn_llrs(np.zeros((count, n), dtype=np.uint8), design_snr_db, rate, rngs)
        final = decode_batch(code, llrs).final_llrs
        scores += 2 * (final < -GENIE_TIE_TOL).sum(axis=0)
        scores += (np.abs(final) <= GENIE_TIE_TOL).sum(axis=0)
    order = np.argsort(-scores, kind="stable")
    return tuple(np.sort(order[: n - k]).tolist())


def format_code_file(code: CodeSpec) -> str:
    """Serialize a code to the four-line text format.

    The format names kernels by size only, so a code whose kernels are
    not the built-in ones raises CodeFileError.
    """
    for kern in code.kernels:
        if kern.p not in (2, 3) or kern.key != builtin_kernel(kern.p).key:
            raise CodeFileError(
                f"kernel of size {kern.p} is not the built-in one; the code file cannot name it"
            )
    lines = [
        "kernels: " + ",".join(str(p) for p in code.bases),
        f"N: {code.N}",
        f"K: {code.K}",
        "frozen: " + ",".join(str(f) for f in code.frozen),
    ]
    return "\n".join(lines) + "\n"


def parse_code_file(text: str) -> CodeSpec:
    """Parse the four-line code format, rejecting inconsistent content.

    Expected layout (frozen ascending, comma-separated, may be empty):

        kernels: 2,2,3
        N: 12
        K: 6
        frozen: 0,1,2,3,4,6
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 4:
        raise CodeFileError(f"expected 4 lines, got {len(lines)}")
    keys = ("kernels", "N", "K", "frozen")
    values = {}
    for line, key in zip(lines, keys):
        head, sep, tail = line.partition(":")
        if not sep or head.strip() != key:
            raise CodeFileError(f"expected line starting with '{key}:', got {line!r}")
        values[key] = tail.strip()
    try:
        sizes = tuple(int(tok) for tok in values["kernels"].split(","))
        n = int(values["N"])
        k = int(values["K"])
        frozen = tuple(
            int(tok) for tok in values["frozen"].split(",") if tok.strip() != ""
        )
    except ValueError as exc:
        raise CodeFileError(f"malformed field: {exc}") from None
    try:
        kernels = [builtin_kernel(p) for p in sizes]
    except UnsupportedKernelSize as exc:
        raise CodeFileError(f"{exc} in code file") from None
    if prod(sizes) != n:
        raise CodeFileError(f"N = {n} does not match kernel product {prod(sizes)}")
    if sorted(set(frozen)) != list(frozen):
        raise CodeFileError("frozen set must be strictly ascending")
    if any(not 0 <= f < n for f in frozen):
        raise CodeFileError("frozen index outside [0, N)")
    if k != n - len(frozen):
        raise CodeFileError(f"K = {k} does not match N - |frozen| = {n - len(frozen)}")
    return CodeSpec(kernels, frozen)


def save_code(code: CodeSpec, path):
    text = format_code_file(code)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_code(path) -> CodeSpec:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CodeFileError(f"code file {path}: {exc}") from None
    return parse_code_file(text)
