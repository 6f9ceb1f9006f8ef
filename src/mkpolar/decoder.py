"""Successive-cancellation decoding on the stage-indexed memory.

Which stage refreshes with which digit, and which partial-sum matrix
propagates, depends only on the kernel sequence, never on the data. So
the SC schedule is built once per kernel sequence, as a flat list of
three kinds of op, and one executor runs it on arrays whose leading axis
holds F frames:

- REFRESH (j, b): stage j recomputes its whole vector in place. Entry k
  is the kernel update of input bit b given the contiguous group
  k*p_j .. (k+1)*p_j - 1 of the previous stage and the known sub-block
  bits in columns 0 .. b - 1 of its partial-sum matrix. Bit i with
  digits (b_1, ..., b_s) refreshes stages z .. s, where z is the
  position of its rightmost nonzero digit (1 for i = 0); stages below z
  still hold valid values from earlier bits.
- DECIDE (i, c): read the decision LLR of bit i, the single stage-s
  LLR. Frozen bits decide 0, otherwise a negative LLR decides 1 (tie
  decides 0). Unless i is the last bit, store the decision in column
  c = b_s of the stage-s matrix.
- PROPAGATE (j, c): push the completed stage-j matrix through its
  kernel. Row k of stage j maps to rows k*p_j .. k*p_j + p_j - 1 of
  stage j-1, landing in column c = b_{j-1}. After bit i this happens
  for each stage j of the trailing run of digits b_j = p_j - 1, from
  stage s outwards. Nothing propagates after the last bit, which is why
  the stage-1 matrix never needs its final column.

decode_batch runs the schedule on the stage memory that memory.allocate
builds for F frames, and decode is its F = 1 case. The schedule is bound
to that memory once per kernel sequence and F: each op becomes a few
in-place numpy calls on fixed views, so a run creates no views and
allocates nothing.

One rule binds every REFRESH. Stage j-1 does not change while stage j
runs through its digits b = 0 .. p_j - 1, so at b = 0 one pass of
kernels.llr_candidate_steps fills the stage's candidate table with the
update of every bit t of each of its R = F * p_{j+1} * ... * p_s blocks
under every known prefix v, the blocks innermost. Then
kernels.llr_gather_steps refreshes the vector: a copy at b = 0, and at
b > 0 a matmul that reads each block's prefix from columns 0 .. b-1 of
the partial-sum matrix, an add that offsets the blocks when R > 1 and a
take. The last stage refreshes straight into the final-LLR row of the
bit it decides, so its vector in the memory is never written and DECIDE
is one less into the stage-s matrix, or nothing for the last bit.

Results are bit for bit those of the block-major update rule, one
update per bit on output LLRs flipped by the sign of the known
codeword, for kernels of size 2 and 3, which covers every built-in
code. A kernel of size 4 or more sums longer runs, which numpy and BLAS
may add in another order in another layout or at another F, so its
results agree up to rounding. A call takes its program out of the cache
while it runs and returns copies.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .codes import CodeSpec
from .errors import LengthMismatch
from .kernels import check_llrs, check_mode, llr_candidate_steps, llr_gather_steps
from .memory import allocate

REFRESH, DECIDE, PROPAGATE = range(3)
# parity mask for PROPAGATE: a uint8 array operand costs less per call
# than the Python int 1
_ONE = np.ones(1, dtype=np.uint8)

# Most LLR entries (frames x N) that construction and simulation put into
# one decode_batch call.
BATCH_LLR_ENTRIES = 1 << 16


@dataclass
class DecodeStats:
    """Access counters of one frame's decode.

    llr_updates[j-1] counts vector refreshes of stage j;
    ps_propagations[j-1] counts pushes of the completed stage-j matrix
    into stage j-1. ps_reads / ps_writes tally column accesses of each
    partial-sum matrix (stage 1 keeps a slot for the absent last column).
    They are counted from the schedule, op by op.

    After a full decode the counters follow closed forms that depend only
    on the kernel sizes p_1, ..., p_s:

    - llr_updates[j-1] == p_1 * ... * p_j, one refresh per distinct digit
      prefix (b_1, ..., b_j);
    - llr_updates.sum() == sum over j of p_1 * ... * p_j, which is
      exactly 2N - 2 for an all-binary code;
    - ps_propagations[j-1] == p_1 * ... * p_{j-1} - 1 for j >= 2, and
      ps_propagations[0] == 0.
    """

    llr_updates: np.ndarray
    ps_propagations: np.ndarray
    ps_reads: list
    ps_writes: list

    def copy(self):
        return DecodeStats(
            llr_updates=self.llr_updates.copy(),
            ps_propagations=self.ps_propagations.copy(),
            ps_reads=[c.copy() for c in self.ps_reads],
            ps_writes=[c.copy() for c in self.ps_writes],
        )


@dataclass
class DecodeResult:
    """Decisions, per-bit decision LLRs and access statistics.

    From decode_batch, u_hat and final_llrs have one row per frame, and
    stats are the counters of each frame's decode.
    """

    u_hat: np.ndarray
    final_llrs: np.ndarray
    stats: DecodeStats


class Schedule:
    """The SC schedule of one kernel sequence.

    Attributes
    ----------
    ops : tuple
        (kind, a, b, kernel) in execution order: (REFRESH, j, b_j, T_j),
        (DECIDE, i, column or -1, None) and (PROPAGATE, j, column, T_j).
    stats : DecodeStats
        The counters of one frame's decode, counted op by op.
    """

    def __init__(self, code: CodeSpec):
        bases, kernels, s, n = code.bases, code.kernels, code.s, code.N
        starts = code.start_stages.tolist()
        ops = []
        for i, d in enumerate(code.digit_table.tolist()):
            ops.extend((REFRESH, j, d[j - 1], kernels[j - 1]) for j in range(starts[i], s + 1))
            if i == n - 1:
                ops.append((DECIDE, i, -1, None))
            else:
                ops.append((DECIDE, i, d[s - 1], None))
                j = s
                while j >= 2 and d[j - 1] == bases[j - 1] - 1:
                    ops.append((PROPAGATE, j, d[j - 2], kernels[j - 1]))
                    j -= 1
        self.ops = tuple(ops)
        self.stats = stats = DecodeStats(
            llr_updates=np.zeros(s, dtype=np.int64),
            ps_propagations=np.zeros(s, dtype=np.int64),
            ps_reads=[np.zeros(p, dtype=np.int64) for p in bases],
            ps_writes=[np.zeros(p, dtype=np.int64) for p in bases],
        )
        for kind, a, b, _ in self.ops:
            if kind == REFRESH:
                stats.llr_updates[a - 1] += 1
                stats.ps_reads[a - 1][:b] += 1
            elif kind == DECIDE:
                if b >= 0:
                    stats.ps_writes[s - 1][b] += 1
            else:
                stats.ps_writes[a - 2][b] += 1
                stats.ps_propagations[a - 1] += 1


_SCHEDULES = {}
_PROGRAMS = {}


def _kernel_key(code: CodeSpec):
    return tuple(k.key for k in code.kernels)


def schedule_of(code: CodeSpec) -> Schedule:
    """The schedule of the code's kernel sequence, built once per process.

    Codes with equal kernel contents share it, whatever their frozen sets.
    """
    key = _kernel_key(code)
    schedule = _SCHEDULES.get(key)
    if schedule is None:
        schedule = _SCHEDULES[key] = Schedule(code)
    return schedule


class _Program:
    """The schedule of one kernel sequence bound to the memory of F frames.

    Each op becomes a few (function, args) on views and work arrays fixed
    here, which an op that recurs in the schedule reuses. A frozen bit
    decides 0 because its threshold is -inf: each run sets the
    thresholds from the frozen set of the code it decodes.
    """

    def __init__(self, code: CodeSpec, frames: int):
        self.frames = frames
        self.schedule = schedule_of(code)
        self.permutation = code.permutation
        self.mem = allocate(code, frames)
        # row i holds bit i's decision LLR in every frame
        self.final_llrs = np.empty((code.N, frames))
        self.thresholds = np.empty(code.N)
        # stage j: row 2 (2^t - 1 + v) holds bit t of each block after prefix v
        self.tables = [np.empty((2 * (2**k.p - 1), v.size)) for k, v in zip(code.kernels, self.mem.llr[1:])]
        self.known = [m.reshape(-1, m.shape[-1]) for m in self.mem.ps]  # stage j: (blocks, width)
        self.offsets = np.arange(self.mem.llr[1].size)
        self.index = np.empty(self.offsets.size, np.intp)
        # a bool view of the uint8 stage-s bits: np.less then casts nothing
        self.decided = self.mem.ps[-1].view(np.bool_)[:, 0]
        self._work, self._bound, self._steps = {}, {}, {}

    def _scratch(self, role, shape, dtype):
        # one work array per role serves every stage: ops run one at a time
        size = prod(shape)
        if role not in self._work or self._work[role].size < size:
            self._work[role] = np.empty(size, dtype)
        return self._work[role][:size].reshape(shape)

    def _bind(self, kind, a, b, kernel, bit):
        llr, ps = self.mem.llr, self.mem.ps
        if kind == REFRESH:
            # the last stage refreshes straight into the row of its bit
            target = self.final_llrs[bit] if a == len(ps) else llr[a].reshape(-1)
            return llr_gather_steps(b, self.tables[a - 1], self.known[a - 1], target, self.index, self.offsets)
        if kind == DECIDE:
            if b < 0:  # the last bit is stored nowhere; run decides it with the rest
                return []
            return [(np.less, (self.final_llrs[a], self.thresholds[a : a + 1], self.decided[:, b]))]
        source, target = ps[a - 1], ps[a - 2]
        target = target.reshape(source.shape + target.shape[-1:])[..., b]
        return [(np.matmul, (source, kernel.rows, target)), (np.bitwise_and, (target, _ONE, target))]

    def steps(self, mode):
        steps = self._steps.get(mode)
        if steps is None:
            steps = self._steps[mode] = []
            bit, last = 0, len(self.tables)
            for op in self.schedule.ops:
                kind, a, b, kernel = op
                if kind == REFRESH and not b:
                    # the candidate pass of stage a: the one step that reads the mode
                    key = (a, mode)
                    if key not in self._bound:
                        table = self.tables[a - 1]
                        groups = self.mem.llr[a - 1].reshape(table.shape[1], kernel.p)
                        self._bound[key] = llr_candidate_steps(kernel, mode, groups, table, self._scratch)
                    steps += self._bound[key]
                # a last-stage refresh writes the row of the bit it decides
                key = (op, bit) if kind == REFRESH and a == last else op
                if key not in self._bound:
                    self._bound[key] = self._bind(*op, bit)
                steps += self._bound[key]
                bit += kind == DECIDE
        return steps

    def run(self, code: CodeSpec, channel_llrs, mode):
        """Decode (F, N) channel LLRs into mem.decisions and final_llrs."""
        mem = self.mem
        mem.llr[0][:, self.permutation] = channel_llrs
        np.copyto(self.thresholds, np.where(code.frozen_mask, -np.inf, 0.0))
        for fn, args in self.steps(mode):
            fn(*args)
        np.less(self.final_llrs.T, self.thresholds, out=mem.decisions)


def decode_batch(code: CodeSpec, channel_llrs, mode: str = "exact") -> DecodeResult:
    """SC-decode F frames of channel LLRs at once.

    Parameters
    ----------
    code : CodeSpec
    channel_llrs : array_like
        (F, N) LLRs, one frame per row in natural codeword order,
        positive favoring bit 0, each at most 1e300 in magnitude:
        larger ones, NaN and inf raise NonFiniteInput.
    mode : str
        "exact" marginalizes with log-sum-exp, "minsum" with max.

    Returns
    -------
    DecodeResult whose u_hat and final_llrs are (F, N): row f holds
    exactly what decode(code, channel_llrs[f], mode) returns when every
    kernel has size 2 or 3; with a kernel of size 4 or more the LLRs
    agree up to rounding. stats are the counters of each frame's decode.
    All are fresh arrays.
    """
    check_mode(mode)
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.N:
        raise LengthMismatch(f"expected {code.N} LLRs per frame, got shape {llrs.shape}")
    check_llrs(llrs, "channel LLRs")
    # checked out, so that no other call runs on this memory meanwhile
    key = _kernel_key(code)
    program = _PROGRAMS.pop(key, None)
    if program is None or program.frames != len(llrs):
        program = _Program(code, len(llrs))
    try:
        program.run(code, llrs, mode)
        mem, stats = program.mem, program.schedule.stats
        return DecodeResult(mem.decisions.copy(), program.final_llrs.T.copy(), stats.copy())
    finally:
        if program.frames * code.N <= BATCH_LLR_ENTRIES:  # keep no huge memory alive
            _PROGRAMS[key] = program


def decode(code: CodeSpec, channel_llrs, mode: str = "exact") -> DecodeResult:
    """SC-decode one frame of channel LLRs (natural codeword order).

    Parameters
    ----------
    code : CodeSpec
    channel_llrs : array_like
        N LLRs, positive favoring bit 0, each at most 1e300 in magnitude.
    mode : str
        "exact" marginalizes with log-sum-exp, "minsum" with max.

    Returns
    -------
    DecodeResult with the N hard decisions, the decision LLR observed
    for every bit, and the update counters.
    """
    result = decode_batch(code, np.asarray(channel_llrs, dtype=np.float64)[None], mode)
    return DecodeResult(u_hat=result.u_hat[0], final_llrs=result.final_llrs[0], stats=result.stats)
