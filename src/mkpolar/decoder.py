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

decode_batch runs the schedule on the stage memory that memory.allocate
builds for F frames, and decode is its F = 1 case.
"""

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .errors import LengthMismatch, NonFiniteInput
from .kernels import llr_kernel_batch
from .memory import allocate

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


def schedule_of(code: CodeSpec) -> Schedule:
    """The schedule of the code's kernel sequence, built once per process.

    Codes with equal kernel contents share it, whatever their frozen sets.
    """
    key = tuple(k.key for k in code.kernels)
    schedule = _SCHEDULES.get(key)
    if schedule is None:
        schedule = _SCHEDULES[key] = Schedule(code)
    return schedule


def _execute(code: CodeSpec, mem, channel_llrs, mode):
    """Ingest (F, N) channel LLRs into `mem` and run the code's schedule.

    Leaves the decisions in mem.decisions and returns the (F, N) decision
    LLRs.
    """
    llr, ps, decisions = mem.llr, mem.ps, mem.decisions
    llr[0][:, code.permutation] = channel_llrs
    final_llrs = np.empty(decisions.shape, dtype=np.float64)
    decision_llrs = llr[-1][:, 0]
    for kind, a, b, kernel in schedule_of(code).ops:
        if kind == REFRESH:
            target = llr[a]
            groups = llr[a - 1].reshape(target.shape + (kernel.p,))
            target[:] = llr_kernel_batch(kernel, b, groups, ps[a - 1][:, :, :b], mode)
        elif kind == DECIDE:
            final_llrs[:, a] = decision_llrs
            decisions[:, a] = False if code.frozen_mask[a] else decision_llrs < 0
            if b >= 0:
                ps[-1][:, 0, b] = decisions[:, a]
        else:
            target = ps[a - 2][:, :, b]
            target[:] = (ps[a - 1] @ kernel.rows & 1).reshape(target.shape)
    return final_llrs


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
    mem = allocate(code, llrs.shape[0])
    final_llrs = _execute(code, mem, llrs, mode)
    return DecodeResult(mem.decisions, final_llrs, schedule_of(code).stats.copy())


def _checked_llrs(code: CodeSpec, channel_llrs):
    """Check one frame of N finite channel LLRs; return it as float64."""
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.shape != (code.N,):
        raise LengthMismatch(f"expected {code.N} LLRs, got shape {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise NonFiniteInput("channel LLRs must be finite")
    return llrs


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
    result = decode_batch(code, _checked_llrs(code, channel_llrs)[None], mode)
    return DecodeResult(u_hat=result.u_hat[0], final_llrs=result.final_llrs[0], stats=result.stats)
