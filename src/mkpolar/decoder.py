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
  digits (b_1, ..., b_s) refreshes stages start_stage(i) .. s, the
  rightmost nonzero digit position onwards; stages below it still hold
  valid values from earlier bits.
- DECIDE (i, c): read the single stage-s LLR. Frozen bits decide 0,
  otherwise a negative LLR decides 1 (tie decides 0). Unless i is the
  last bit, store the decision in column c = b_s of the stage-s matrix.
- PROPAGATE (j, c): push the completed stage-j matrix through its
  kernel. Row k of stage j maps to rows k*p_j .. k*p_j + p_j - 1 of
  stage j-1, landing in column c = b_{j-1}. After bit i this happens for
  the trailing_max_run(i) innermost stages whose digit sits at its
  maximum. Nothing propagates after the last bit, which is why the
  stage-1 matrix never needs its final column.

decode_batch runs the schedule on F frames and decode is its F = 1
case. llr_phase, estimate_bit and ps_phase run the ops of one bit on a
DecoderMemory, through the same op functions, for hand traces.
"""

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .errors import LengthMismatch, NonFiniteInput
from .kernels import llr_kernel_batch
from .memory import DecoderMemory, stage_shapes

REFRESH, DECIDE, PROPAGATE = range(3)

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


def _count(counters, s, op):
    """Add the memory accesses of one op to DecodeStats-like counters."""
    kind, a, b, _ = op
    if kind == REFRESH:
        counters.llr_updates[a - 1] += 1
        counters.ps_reads[a - 1][:b] += 1
    elif kind == DECIDE:
        if b >= 0:
            counters.ps_writes[s - 1][b] += 1
    else:
        counters.ps_writes[a - 2][b] += 1
        counters.ps_propagations[a - 1] += 1


class Schedule:
    """The SC schedule of one kernel sequence.

    Attributes
    ----------
    ops : tuple
        (kind, a, b, kernel) in execution order: (REFRESH, j, b_j, T_j),
        (DECIDE, i, column or -1, None) and (PROPAGATE, j, column, T_j).
    bit_ops : tuple
        (start, decide, stop) per bit i: ops[start:decide] are its
        refreshes, ops[decide] its decision, ops[decide + 1:stop] its
        propagations.
    llr_sizes, ps_shapes : tuple
        Per-frame shapes of the stage memory (memory.stage_shapes).
    stats : DecodeStats
        The counters of one frame's decode.
    """

    def __init__(self, code: CodeSpec):
        bases, kernels, s, n = code.bases, code.kernels, code.s, code.N
        starts = code.start_stages.tolist()
        ops, bit_ops = [], []
        for i, d in enumerate(code.digit_table.tolist()):
            begin = len(ops)
            ops.extend((REFRESH, j, d[j - 1], kernels[j - 1]) for j in range(starts[i], s + 1))
            decide = len(ops)
            if i == n - 1:
                ops.append((DECIDE, i, -1, None))
            else:
                ops.append((DECIDE, i, d[s - 1], None))
                j = s
                while j >= 2 and d[j - 1] == bases[j - 1] - 1:
                    ops.append((PROPAGATE, j, d[j - 2], kernels[j - 1]))
                    j -= 1
            bit_ops.append((begin, decide, len(ops)))
        self.ops = tuple(ops)
        self.bit_ops = tuple(bit_ops)
        self.llr_sizes, self.ps_shapes = stage_shapes(bases)
        self.stats = DecodeStats(
            llr_updates=np.zeros(s, dtype=np.int64),
            ps_propagations=np.zeros(s, dtype=np.int64),
            ps_reads=[np.zeros(p, dtype=np.int64) for p in bases],
            ps_writes=[np.zeros(p, dtype=np.int64) for p in bases],
        )
        for op in self.ops:
            _count(self.stats, s, op)


_SCHEDULES = {}


def schedule_of(code: CodeSpec) -> Schedule:
    """The schedule of the code's kernel sequence, built once per process.

    Codes with equal kernel contents share it, whatever their frozen sets.
    """
    key = tuple(k.key for k in code.kernels)
    schedule = _SCHEDULES.get(key)
    if schedule is None:
        schedule = _SCHEDULES[key] = Schedule(code)
    return schedule


# ---- the ops, on stage arrays with a leading frame axis -----------------


def _refresh(llr, ps, j, b, kernel, mode):
    target = llr[j]
    groups = llr[j - 1].reshape(target.shape + (kernel.p,))
    target[:] = llr_kernel_batch(kernel, b, groups, ps[j - 1][:, :, :b], mode)


def _decide(decision_llrs, frozen, out):
    out[:] = False if frozen else decision_llrs < 0


def _store(ps, col, bits):
    ps[-1][:, 0, col] = bits


def _propagate(ps, j, col, kernel):
    target = ps[j - 2][:, :, col]
    target[:] = (ps[j - 1] @ kernel.rows & 1).reshape(target.shape)


def _execute(schedule, frozen_mask, llr, ps, decisions, final_llrs, mode):
    decision_llrs = llr[-1][:, 0]
    for kind, a, b, kernel in schedule.ops:
        if kind == REFRESH:
            _refresh(llr, ps, a, b, kernel, mode)
        elif kind == DECIDE:
            final_llrs[:, a] = decision_llrs
            bits = decisions[:, a]
            _decide(decision_llrs, frozen_mask[a], bits)
            if b >= 0:
                _store(ps, b, bits)
        else:
            _propagate(ps, a, b, kernel)


# ---- one bit at a time, on a DecoderMemory ------------------------------


def _frame_view(mem: DecoderMemory):
    return [v[None] for v in mem.llr], [m[None] for m in mem.ps]


def ingest_channel_llrs(mem: DecoderMemory, code: CodeSpec, channel_llrs):
    """Load channel LLRs into stage 0 in digit-reversed order."""
    mem.llr[0][code.permutation] = channel_llrs


def llr_phase(mem: DecoderMemory, code: CodeSpec, i: int, mode: str = "exact"):
    """Refresh stages start_stage(i) .. s for bit i."""
    schedule = schedule_of(code)
    start, decide, _ = schedule.bit_ops[i]
    llr, ps = _frame_view(mem)
    for op in schedule.ops[start:decide]:
        _count(mem, code.s, op)
        _refresh(llr, ps, op[1], op[2], op[3], mode)


def estimate_bit(mem: DecoderMemory, code: CodeSpec, i: int) -> int:
    """Hard-decide bit i from the stage-s LLR and record it."""
    _decide(mem.llr[-1], code.frozen_mask[i], mem.decisions[i : i + 1])
    return int(mem.decisions[i])


def ps_phase(mem: DecoderMemory, code: CodeSpec, i: int, bit: int):
    """Store the decision for bit i and propagate completed matrices."""
    schedule = schedule_of(code)
    _, decide, stop = schedule.bit_ops[i]
    _, ps = _frame_view(mem)
    for op in schedule.ops[decide:stop]:
        _count(mem, code.s, op)
        if op[0] == DECIDE:
            if op[2] >= 0:
                _store(ps, op[2], bit)
        else:
            _propagate(ps, op[1], op[2], op[3])


# ---- whole frames --------------------------------------------------------


def decode_batch(code: CodeSpec, channel_llrs, mode: str = "exact") -> DecodeResult:
    """SC-decode F frames of channel LLRs at once.

    Parameters
    ----------
    code : CodeSpec
    channel_llrs : array_like
        (F, N) finite LLRs, one frame per row in natural codeword order,
        positive favoring bit 0. Saturate before calling.
    mode : str
        "exact" marginalizes with log-sum-exp, "minsum" with max.

    Returns
    -------
    DecodeResult whose u_hat and final_llrs are (F, N): row f holds
    exactly what decode(code, channel_llrs[f], mode) returns. stats are
    the counters of each frame's decode.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.N:
        raise LengthMismatch(f"expected (F, {code.N}) LLRs, got shape {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise NonFiniteInput("channel LLRs must be finite")
    schedule = schedule_of(code)
    frames = llrs.shape[0]
    llr = [np.empty((frames, n), dtype=np.float64) for n in schedule.llr_sizes]
    llr[0][:, code.permutation] = llrs
    ps = [np.zeros((frames,) + shape, dtype=np.uint8) for shape in schedule.ps_shapes]
    decisions = np.zeros((frames, code.N), dtype=np.uint8)
    final_llrs = np.empty((frames, code.N), dtype=np.float64)
    _execute(schedule, code.frozen_mask, llr, ps, decisions, final_llrs, mode)
    return DecodeResult(u_hat=decisions, final_llrs=final_llrs, stats=schedule.stats.copy())


def decode(code: CodeSpec, channel_llrs, mode: str = "exact") -> DecodeResult:
    """SC-decode one frame of channel LLRs (natural codeword order).

    Parameters
    ----------
    code : CodeSpec
    channel_llrs : array_like
        N finite LLRs, positive favoring bit 0. Saturate before calling.
    mode : str
        "exact" marginalizes with log-sum-exp, "minsum" with max.

    Returns
    -------
    DecodeResult with the N hard decisions, the decision LLR observed
    for every bit, and the update counters.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.shape != (code.N,):
        raise LengthMismatch(f"expected {code.N} LLRs, got shape {llrs.shape}")
    result = decode_batch(code, llrs[None], mode)
    return DecodeResult(u_hat=result.u_hat[0], final_llrs=result.final_llrs[0], stats=result.stats)
