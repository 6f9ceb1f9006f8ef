"""Successive-cancellation decoding on the stage-indexed memory.

SC decoding is a depth-first walk of the sub-code tree, the tree of
constituent codes of Sarkis et al. (IEEE JSAC 2014) with mixed radices.
The bits that share digits b_1 .. b_j are a sub-code, the node of root
stage j decoded from stage j's vector at that prefix alone; its p_{j+1}
children share one more digit. The walk depends only on the kernel
sequence, never on the data. A node of stage j < s decodes its children
in digit order b = 0 .. p_{j+1} - 1, each after a refresh of stage j+1's
vector: entry k is the kernel update of input bit b given the contiguous
group k*p_{j+1} .. (k+1)*p_{j+1} - 1 of stage j's vector and the known
sub-block bits in columns 0 .. b - 1 of stage j+1's partial-sum matrix.
A node of stage s is one bit i: frozen, it decides 0, otherwise a
negative decision LLR decides 1 (tie decides 0), stored in column b_s of
stage s's matrix. A completed node of stage 1 <= j < s pushes stage
j+1's matrix through T_{j+1} (kernels.product_steps) into column b_j of
stage j's. The node that ends the code stores and pushes nothing, which
is why the stage-1 matrix never needs its final column. DecodeStats
counts this walk per frame by closed forms in the kernel sizes, built
once per size tuple (_counters): with before_j = p_1 * ... * p_{j-1},
stage j refreshes before_j * p_j times and, for j >= 2, pushes
before_j - 1 times.

decode_batch runs the walk on the stage memory that memory.allocate
builds for F frames side by side, so a batch costs one numpy call per
step, not one per frame (inter-frame vectorization, as in Le Gal, Leroux
and Jego, IEEE TSP 2015), and decode is its F = 1 case. _Program binds
the walk to that memory once per code and F, node by node from the
tree: each node becomes a few in-place numpy calls on fixed views and
shared work arrays, each bound once wherever it recurs, so a run
creates no views. It still allocates numpy's buffers for calls whose
inputs are broadcast or strided unlike their output, up to 16.4 KB for a
broadcast subtract of an exact-mode pass: a warm decode at N = 972 peaks
at about 16.5 KiB under tracemalloc, its results included.

One rule binds every refresh above the tail. Stage j-1 does not change
while stage j runs through its digits b = 0 .. p_j - 1, so at b = 0 one
pass of kernels.llr_candidate_steps fills the stage's candidate table
with the update of every bit t of each of its R = F * p_{j+1} * ... *
p_s blocks under every known prefix v, the blocks innermost. Then
kernels.llr_gather_steps refreshes the vector at each digit b, reading
each block's prefix from columns 0 .. b-1 of the partial-sum matrix. So
a kernel block is one unit, as Fast-SSC decoders treat small constituent
codes (Sarkis et al., IEEE JSAC 2014), without leaving exact SC; and as
the R blocks of all F frames lie innermost in every work array, each
call works on whole rows at any F.

The tail, the last stage alone or, under the look-ahead, the last two,
is decided a block of bits at a time by a walk down the candidates of
stage s's table into mem.decisions, which writes no tail stage's vector
nor stage s's partial-sum matrix: _Program._bind_tail states how.

Rate-0 and REP nodes fold. If all bits of a node are frozen (Rate-0) or
all but the last (REP; Sarkis et al., IEEE JSAC 2014; Hanif and
Ardakani, IEEE Comm. Lett. 2017), each is decided after the all-zero
prefix inside it, so its LLR is the update after that prefix: one
kernels.zero_prefix_steps pass per stage over every prefix at once forms
them all. The node map (_kinds) holds the largest such node, the one
the walk meets first; if its root stage
is 0 <= j < top, so whole tail blocks, it binds in place of the node's
subtree those passes of stages j+1 .. s over stage j's vector (the
frames one more prefix axis), in place, one take of the digit-reversed
result into its final-LLR rows (_Program._fold), a REP node's less of
its last bit and, for the push into stage j >= 1, a zero fill of that
column or the REP decision times the last row of T_{j+1} x ... x T_s:
the Kronecker product of the kernels' last rows in reverse kernel order,
to match the column's digit-reversed entries (all ones for T2, [0, 1, 1]
for T3). No step writes its frozen decisions, so they stay 0. The pass
forms the candidate row of prefix 0 by the core that binds the candidate
pass (kernels._best_steps), the row the gathers and walks would read, so
outputs do not change. It works in the program's one work pool from
stage j+1's candidate table on, over the tables of stages j+1 .. s, idle
meanwhile, and the shared metrics and total; stage j's vector is
refreshed, or the channel vector ingested, before it is read again. The
first table bound sizes the candidates for every table, or with none the
folds size them; where a fold needs more, the pool grows and the program
binds again (_Program.steps). Each pass of a fold spans its root stage's
whole vector, so a pass of T3 there can need more metrics floats than
any candidate pass. In a whole-code fold it needs 4 F N where the
stage-1 candidate pass of T2 needs 2 F N, or 10/3 F N against F N in
passes of more than kernels.WIDE_ROWS blocks, which keep one metrics row
per run of two; such passes make a fold at root stage 1 grow it too, 5/3
F N against F N when T2 is the first kernel and T3 the last. The
all-frozen code folds whole, at stage 0: its program is the s passes and
the take, which is genie-aided construction (codes.construct_frozen_mc).
As a program is bound for one frozen set, that fold's work lies in the
construction's program alone, never in a decode's.

A Monte-Carlo run reads only decisions, so simulate decodes by a third
walk beside the two full ones, the decisions walk (_decisions): Rate-0
nodes bind their push alone, and a REP node, in place of its fold, the
chain of its last bit, two word metrics, a subtract and a clip per kernel
over the entries of digit p-1 alone (kernels.last_bit_steps), with the
bits of the fold's LLR (_Program states why); like the node rules of
Sarkis et al. (IEEE JSAC 2014) it stays exact SC. decode, decode_batch
and construction run the full walk, which returns or scores every bit's
LLR. On the benchmark's simulate-fer workload, whose code has one REP
node, the decisions walk cut a capped decode from 2.6 to 1.9-2.0 ms, and
with the message and noise words drawn in one pass (simulation) simulate
rose from 488k to 547k frames/s (1.12x, medians of 10 pairs,
BENCH_37.json).

With the benchmark's decode-paper frozen sets (K = N/2), 31-50% of each
paper code's bits lie in folds at F = 1 and 44-50% at the batch cap, and
a single-frame decode makes 4.6-6.5 numpy calls per bit in exact mode
and 3.1-4.3 in minsum mode, 13-29% fewer than with no frozen bit. On the
benchmark's decode-paper workload Rate-0 folds raised single-frame
decoding from 204k to 244k bits/s (1.19x, medians of 10 pairs,
BENCH_23.json), and REP folds with the unbuffered parity mask
(kernels.product_steps) from 243k to 267k (1.10x, medians of 10 pairs,
BENCH_26.json).

Results are bit for bit those of the block-major update rule, one
update per bit on output LLRs flipped by the sign of the known
codeword, with every sum in the order kernels._best_steps fixes: the
look-ahead reads only values that the tail of the last stage alone
computes, by the same pass.

decode_batch and _decisions take their program out of one cache
(_PROGRAMS) for the run, put it back and return copies; a call with no
frames binds none.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, product
from math import prod

import numpy as np

from .codes import CodeSpec, channel_permutation
from .errors import LengthMismatch
from .kernels import (
    WorkArrays, as_llrs, check_mode, last_bit_steps, llr_candidate_steps, llr_gather_steps, product_steps,
    zero_prefix_stages,
)
from .memory import allocate

# Most LLR entries (frames x N) that construction and simulation put into
# one decode_batch call.
BATCH_LLR_ENTRIES = 1 << 16
# The tail is the last two stages while F (2^P - 1) < this (_bind_tail). In
# exact mode the look-ahead stopped paying between 2500 and 3600 on (2,3),
# (3,2) and (3,3) tails; its leaf work grows with the candidates, not the vectors.
LOOKAHEAD_CANDIDATES = 2560
STEP_BYTES = 400  # the Python objects of one bound step: measured 285-430 B
# Two capped programs of any paper code, bound in both modes, charge at most
# 14,859,578 B (14.17 MiB): (2,2,3,3,3,3,3) 7.49 MiB and (2,2,2,2,2,2,2,3) 6.68 MiB.
CACHE_BYTES = 16 << 20


@dataclass
class DecodeStats:
    """Access counters of one frame's decode.

    llr_updates[j-1] counts vector refreshes of stage j;
    ps_propagations[j-1] counts pushes of the completed stage-j matrix
    into stage j-1. ps_reads / ps_writes tally column accesses of each
    partial-sum matrix (stage 1 keeps a slot for the absent last column).
    They count the paper's schedule, the walk of the sub-code tree in the
    module docstring, not the memory traffic of the program, its tail
    skipping some of them (_Program._bind_tail) and its folds all of
    theirs: the counts do not depend on the frozen set.

    They are closed forms in the kernel sizes p_1, ..., p_s alone
    (_counters). With before_j = p_1 * ... * p_{j-1}:

    - llr_updates[j-1] == before_j * p_j, one refresh per distinct digit
      prefix (b_1, ..., b_j); their sum is 2N - 2 for an all-binary code;
    - ps_propagations[j-1] == before_j - 1 for j >= 2, one push per node
      of stage j-1 but the last, and ps_propagations[0] == 0;
    - ps_reads[j-1][c] == before_j * (p_j - 1 - c), as the refresh at
      digit b reads columns 0 .. b-1;
    - ps_writes[j-1][c] == before_j, less 1 at c = p_j - 1, as the last
      bit stores and pushes nothing.
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


# The idle bound programs of decode_batch, least recently used first, one per
# key (kernel key, frozen set, F) for batches of at most BATCH_LLR_ENTRIES LLR
# entries (_key), so callers that alternate batch sizes, such as single-frame
# decodes between the capped batches of a simulate run, bind each size once.
# Each program serves one code: a construction runs on the all-frozen code's
# program, never on a decode's. A running program is out of the
# cache, so no two calls run on one program's memory at once; it goes back when
# the run returns or raises. A program stores its charge when it is bound and
# whenever it binds steps (_charge); after a run that changed it, _evict keeps
# the cache within CACHE_BYTES. On the paper codes a capped construction program
# charges 6.24-6.33 MiB in exact mode. A sweep over F = 1, 2, 3, ... on one code
# kept at most 16.9, 16.1 and 16.2 MiB under tracemalloc for N = 12 (F up to
# 200), 144 (F up to 60) and 972 (F up to 20).
_PROGRAMS = {}


def _key(code: CodeSpec, frames):
    """The cache key of code's program for frames. It holds the frozen tuple,
    not the mask's bytes, so that a call allocates nothing for it."""
    return tuple(k.key for k in code.kernels), code.frozen, frames


@lru_cache
def _counters(bases) -> DecodeStats:
    """DecodeStats' closed forms for the kernel sizes bases, built once per
    tuple and shared: callers return copies."""
    before = np.cumprod((1,) + bases[:-1], dtype=np.int64)  # before_j
    return DecodeStats(
        llr_updates=before * bases,
        ps_propagations=np.r_[0, before[1:] - 1],
        ps_reads=[b * np.arange(p - 1, -1, -1) for b, p in zip(before, bases)],
        ps_writes=[np.r_[np.full(p - 1, b), b - 1] for b, p in zip(before, bases)],
    )


def _history(digits, leaf, frames):
    """(V, F, p_s): the flat entry of stage s-1's table, of F frames, that
    entry k of tail vector h reads in frame f, for digits b < digits. After
    leaf input words (w_0, ..., w_{b-1}) at digit b it is in row
    2 (2^b - 1 + v), where bit c of v, first most significant, is entry k of
    the codeword of w_c. The vectors run by b, then by the words read as one
    number, w_0 most significant."""
    rows = []
    for b in range(digits):
        words = np.array(list(product(range(1 << leaf.p), repeat=b)), np.intp)
        codewords = leaf.codewords[words].transpose(0, 2, 1)  # (histories, p_s, b)
        rows.append(2 * ((1 << b) - 1 + codewords @ (1 << np.arange(b - 1, -1, -1))))
    columns = np.arange(frames * leaf.p).reshape(frames, leaf.p)
    return np.concatenate(rows)[:, None] * columns.size + columns


class _Program:
    """The SC walk of one code bound to the memory of F frames.

    Each node of the sub-code tree becomes a few (function, args) on
    views and work arrays fixed here, bound once and reused wherever it
    recurs. Beyond allocate's stage memory, the final LLRs and the
    thresholds, every array the program holds is a role of one grow-only
    pool, self.work, made by the binder of the first step that reads it;
    a walk that grew one binds again. A frozen bit decides 0 because its
    threshold is -inf, or because no step writes it, inside a fold,
    where it keeps the 0 that allocate gave it. The thresholds and the
    kind of every node the walk visits (self.kinds, _kinds) are set
    here, from the code's read-only mask, and never change. A walk is
    the step list that one run executes; the program keeps one per mode
    and walk, bound once, and again only when a walk grew the pool.

    The full walk, which decode_batch runs, binds per kind of node:
    - Rate-0: its fold (the zero-prefix passes and the take into its
      final-LLR rows) and a zero fill of its push;
    - REP: its fold, the less of its last bit and its push;
    - tail block: stage s's pass and the tail's walk (_bind_tail);
    - inner: stage j+1's pass, then per digit the gather and the child.
    The decisions walk, which simulate runs (_decisions), forms no LLR that
    no decision reads: a Rate-0 node binds its zero fill alone, and a REP
    node the chain of its last bit (kernels.last_bit_steps, _chain) in
    place of its fold, then the same less and push; tail blocks and inner
    nodes bind as in the full walk. The chain reproduces the fold's LLR of
    the last bit bit for bit: a zero-prefix pass forms bit p-1 as the
    difference of the metrics of words 0...00 and 0...01, by the same
    products, and clips it, and no fmax or log-sum-exp is on that path.

    The tables buy speed with memory beyond the paper's layout. Bound in
    both modes (nbytes, _charge), a capped program holds 5.3-6.0 times the
    bytes of allocate(code, F) on the paper codes, and at F = 1 7.4-26.0
    times: 32 KiB at N = 72, small in bytes but large against a layout of
    1.3 KiB. At F = 1 the look-ahead adds its table of 2 (2^P - 1) floats
    per frame (8 KiB for P = 9), its vectors and history and the wider work
    arrays of its leaf pass. Construction's program holds its fold's work
    alone: 6.61 MB for the capped all-frozen (2,2,2,2,3,3) program, 0.67
    MB of it stage memory that no step reads. memory.memory_report, and
    so meminfo, counts only the paper's layout.
    """

    def __init__(self, code: CodeSpec, frames: int):
        self.mem = allocate(code, frames)
        # row i holds bit i's decision LLR in every frame
        self.final_llrs = np.empty((code.N, frames))
        self.thresholds = np.where(code.frozen_mask, -np.inf, 0.0)
        self.bases = code.bases
        self.lookahead = code.s > 1 and frames * ((1 << prod(code.bases[-2:])) - 1) < LOOKAHEAD_CANDIDATES
        # the tail: stages top .. s, whose vectors the program never writes
        self.top = code.s - self.lookahead
        self.leaf = code.kernels[-1]
        upper, p = code.bases[-2] if self.lookahead else 1, self.leaf.p
        # before[d]: stage-(s-1) vectors per frame at digits below d
        self.before = [sum(1 << b * p for b in range(d)) for d in range(upper + 1)]
        # stage a's candidates (llr_candidate_steps), in the pool from starts[a-1];
        # stage s's blocks are the leaf vectors, frame f's vector h in column h F + f
        widths = [v.size for v in self.mem.llr[1:-1]] + [self.before[-1] * frames]
        self.shapes = [(2 * (2**k.p - 1), w) for k, w in zip(code.kernels, widths)]
        self.starts = list(accumulate(map(prod, self.shapes), initial=0))
        self.known = [m.reshape(-1, m.shape[-1]) for m in self.mem.ps[:-1]]  # stage j: (blocks, width)
        # every other array is a role of the pool, made by the binder of the first step that reads it
        self.work, self._bound, self._steps, self.kernels = WorkArrays(), {}, {}, code.kernels
        self.kinds = _kinds(code.frozen_mask, code.bases, self.top)
        _charge(self)

    def _table(self, a):
        """Stage a's candidate table, a view of the pool's candidates, which the
        first call sizes for every table, so that no walk grows it table by table."""
        candidates = self.work("candidates", (self.starts[-1],), np.float64)
        return candidates[self.starts[a - 1] : self.starts[a]].reshape(self.shapes[a - 1])

    def _offsets(self):
        """0, 1, 2, ... for the gathers' block offsets and the tail's entries."""
        return self.work.fixed("offsets", lambda: np.arange(max(self.mem.llr[1].size, self.shapes[-1][1])))

    def _passes(self, a, mode):
        """Stage a's candidate pass, the one step that reads the mode, and
        under the look-ahead the leaf pass over every history (_bind_tail)."""
        table, kernel = self._table(a), self.kernels[a - 1]
        steps = llr_candidate_steps(kernel, mode, self.mem.llr[a - 1].reshape(-1, kernel.p), table, self.work)
        if self.lookahead and a == self.top:
            leaf = self._table(len(self.shapes))
            vectors = self.work("vectors", (leaf.shape[1], self.leaf.p), np.float64)
            history = self.work.fixed("history", lambda: _history(self.bases[-2], self.leaf, self.final_llrs.shape[1]))
            steps.append((table.reshape(-1).take, (history.reshape(-1), None, vectors.reshape(-1), "clip")))
            steps += llr_candidate_steps(self.leaf, mode, vectors, leaf, self.work)
        return steps

    def _bind_tail(self, a):
        """Decide the P bits a .. a + P - 1 of a tail block, right after
        stage s's pass has filled its candidates.

        The tail is the last stage alone, P = p_s, or while F * (2^P - 1) <
        LOOKAHEAD_CANDIDATES and s > 1 the last two, P = p_{s-1} * p_s, by
        pre-computation look-ahead (Zhang & Parhi, IEEE TSP 2013) with
        multi-bit decisions (Yuan & Parhi, IEEE TCAS-I 2014); a block is
        the P bits that share all digits above the tail. Under the
        look-ahead stage s-1's vector at digit b depends only on the b leaf
        blocks decided before it, so at the block's bit 0 one take after
        stage s-1's pass builds it under every history of leaf words (V =
        5, 9, 21 or 73 per frame for a (2,2), (2,3), (3,2) or (3,3) tail)
        and stage s's pass runs over all of them, 2^P - 1 candidates per
        frame. In wider batches, where that leaf work costs more than the
        calls it saves, and for s = 1, the one history (V = 1) is the
        stage-(s-1) vector itself.

        Candidate c of vector h in frame f sits at flat entry 2 c W + h F
        + f of stage s's table, W = V F, and row 2 c + 1, spent after the
        pass, takes the entry of its successor, the candidate the next bit
        reads once c decides u: inside a leaf, candidate 2 c + 1 + u of
        the same vector; after a leaf's last bit, with input word w,
        candidate 0 of vector 2^p h + 1 + w. Candidates of a block's last
        bit have none, so with one leaf per block only the rows of bits
        0 .. p-2 do.

        One less per leaf decides the candidates of its vectors against
        the thresholds of their bits. Two copies and an add write each
        candidate's successor entry, and with three leaves or more an add
        moves those of the inner leaves' last bits to vector 2^p h + 1 + w.
        Then P - 1 takes walk each frame down from bit 0's candidate, one
        take fills the block's final-LLR rows and one less its decisions:
        the candidates and the rule of one bit at a time. Unless the block
        ends the code, one product with T_s then fills its columns of stage
        s-1's partial-sum matrix. So no tail stage's vector is written, nor
        stage s's partial-sum matrix.

        Single-frame decodes of the paper codes take the look-ahead, and the
        capped batches of simulate decide the last stage alone. On the five paper codes with no
        frozen bit a single-frame decode makes 6.3-8.8 numpy calls per bit
        in exact mode and 4.3-5.9 in minsum mode, where a matmul, a take and
        a less per tail bit made 7.5-10.1 and 5.6-7.3. On the benchmark's
        decode-paper workload the look-ahead raised single-frame decoding
        from 115k to 152k bits/s (medians of 11 pairs, BENCH_11.json), and
        the walk in place of the per-bit rule from 153k to 174k (1.14x,
        medians of 10 pairs, BENCH_19.json)."""
        table, p, frames = self._table(len(self.shapes)), self.leaf.p, self.final_llrs.shape[1]
        size, width, offsets = (len(self.before) - 1) * p, table.shape[1], self._offsets()
        inner = (1 << p - 1) - 1  # the rows of bits 0 .. p-2
        rows = (1 << p) - 1 if size > p else inner  # the rows with a successor
        llrs, successors = table[: 2 * rows : 2], table[1 : 2 * rows : 2].view(np.intp)
        decided = self.work("decided", (rows, width), np.bool_)

        def successor_entries():  # less h F + f, of each row deciding 0 and 1
            zero = [2 * (2 * c + 1) * width if c < inner else (2 * (c - inner) + 1) * frames for c in range(rows)]
            return [zero, [e + (2 * width if c < inner else frames) for c, e in enumerate(zero)]]

        entries = self.work.fixed("successors", successor_entries)
        # row l: the threshold of each row in leaf l, by the bit of each row
        leaf_thresholds = self.work.fixed("leaf thresholds", lambda: self.thresholds.reshape(-1, p).take(
            [c.bit_length() - 1 for c in range(1, rows + 1)], 1))
        # row r: the entry that bit r of the block reads in each frame, from 0, 1, .. F - 1 at r = 0
        walk = self.work.fixed("walk", lambda: np.repeat(offsets[None, :frames], size, 0))
        steps = []
        for d in range(size // p):
            columns = slice(self.before[d] * frames, self.before[d + 1] * frames)
            steps.append((np.less, (llrs[:, columns], leaf_thresholds[a // p + d, :, None], decided[:, columns])))
        steps += [
            (np.copyto, (successors, entries[0, :, None])),
            (np.copyto, (successors, entries[1, :, None], "no", decided)),
            (np.add, (successors, offsets[:width], successors)),
        ]
        middle = self.before[-2]  # vectors whose leaf is not the block's last
        if middle > 1:
            # 2^p h F + f is h F + f plus h (2^p - 1) F
            last, gap = successors[inner:, : middle * frames], ((1 << p) - 1) * frames
            last = last.reshape(-1, middle, frames)
            steps.append((np.add, (last, offsets[: gap * middle : gap, None], last)))
        flat = table.reshape(-1)
        following = flat.view(np.intp)[width:]  # entry e + W holds the successor of entry e
        steps += [(following.take, (walk[r - 1], None, walk[r], "clip")) for r in range(1, size)]
        final, decisions = self.final_llrs[a : a + size], self.mem.decisions
        steps += [
            (flat.take, (walk, None, final, "clip")),
            (np.less, (final, self.thresholds[a : a + size, None], decisions.view(np.bool_)[:, a : a + size].T)),
        ]
        if a + size < len(self.final_llrs):  # not the code's last block
            leaves, c = size // p, a // p % self.bases[-2]
            words = decisions[:, a : a + size].reshape(frames, leaves, p)
            steps += product_steps(self.leaf, words, self.mem.ps[-2][..., c : c + leaves].swapaxes(1, 2))
        return steps

    def _once(self, key, bind):
        """The steps bound under key: bind() the first time, so that no step is built twice."""
        steps = self._bound.get(key)
        if steps is None:
            steps = self._bound[key] = bind()
        return steps

    def _fold(self, j, a, mode):
        """The zero-prefix passes in mode of every fold at stage j, from stage j+1's candidates
        on, and the take of their result into the final-LLR rows of the fold from bit a."""
        size = self.mem.llr[j].shape[1]
        passes = self._once(("fold", j, mode), lambda: zero_prefix_stages(
            self.kernels[j:], mode, self.mem.llr[j].reshape(-1), self.work, self.starts[j]))
        order = self.work.fixed(("order", j), lambda: channel_permutation(self.bases[j:]))
        return passes + self._once(("take", j, a), lambda: [
            (self.mem.llr[j].reshape(size, -1).take, (order, 0, self.final_llrs[a : a + size], "clip"))])

    def _push(self, kind, j, a, b):
        """The push of the node at stage j from bit a into column b of stage j's
        partial sums: a Rate-0 node's zero fill, a REP node's decision times the last
        row of T_{j+1} x ... x T_s in stage j's (digit-reversed) entry order, or else
        ("product") the product of stage j+1's partial sums with T_{j+1}."""
        source, target = self.mem.ps[j], self.mem.ps[j - 1]
        if kind == "product":
            return product_steps(self.kernels[j], source, target.reshape(source.shape + target.shape[-1:])[..., b])
        if kind == "rate0":
            return [(target[..., b].fill, (0,))]
        row = self.work.fixed(("push", j), lambda: reduce(np.kron, [k.rows[-1] for k in self.kernels[j:][::-1]]))
        return [(np.multiply, (self.mem.decisions[:, a + target.shape[1] - 1, None], row, target[..., b]))]

    def _chain(self, j, last):
        """The REP node at stage j's last-bit chain (kernels.last_bit_steps) into
        final_llrs[last]: its steps up to the last kernel's products are bound once
        per stage, as every node of stage j works in stage j's vector, the subtract
        and clip into the node's own final-LLR row once per node."""
        steps = last_bit_steps(self.kernels[j:], self.mem.llr[j].reshape(-1), self.final_llrs[last], self.work,
                               self.starts[j])
        return self._once(("chain", j), lambda: steps[:-2]) + self._once(("chain", j, last), lambda: steps[-2:])

    def _node(self, j, a, mode, full, steps):
        """Append the steps of the node at stage j from bit a by its kind
        (self.kinds), then its push unless it ends the code. A Rate-0 or REP node
        folds in the full walk; in the decisions walk a Rate-0 node binds its push
        alone and a REP node its last bit's chain. A tail block is stage s's pass
        and the tail's walk; an inner node stage j+1's pass, then at each digit b
        the gather and the child node."""
        size, kind = self.mem.llr[j].shape[1], self.kinds[j, a]
        last = a + size - 1
        if kind == "rate0":
            steps += self._fold(j, a, mode) if full else []
        elif kind == "rep":
            steps += self._fold(j, a, mode) if full else self._chain(j, last)
            steps += self._once(("decide", last), lambda: [(np.less, (
                self.final_llrs[last], self.thresholds[last : last + 1], self.mem.decisions.view(np.bool_)[:, last]))])
        elif kind == "tail":
            steps += self._once((self.top, mode), lambda: self._passes(self.top, mode))
            steps += self._once(("tail", a), lambda: self._bind_tail(a))
        else:  # inner
            steps += self._once((j + 1, mode), lambda: self._passes(j + 1, mode))
            for b in range(self.bases[j]):
                steps += self._once(("gather", j + 1, b), lambda: llr_gather_steps(
                    b, self._table(j + 1), self.known[j], self.mem.llr[j + 1].reshape(-1),
                    self.work("index", (self.mem.llr[1].size,), np.intp), self._offsets()))
                self._node(j + 1, a + b * size // self.bases[j], mode, full, steps)
        # the last stage's tail pushes its own block
        if j and last + 1 < len(self.final_llrs) and (kind != "tail" or self.lookahead):
            b, push = a // size % self.bases[j - 1], kind if kind in ("rate0", "rep") else "product"
            steps += self._once((push, j, a if push == "rep" else b), lambda: self._push(push, j, a, b))

    def steps(self, mode, full=True):
        """The steps of a run in mode, the full walk or, if not full, the decisions
        walk: the walk of the tree from its root, kept per mode and walk. A walk,
        whole or stopped, that grew the pool drops every bound step, of every walk,
        and walks again, which grows nothing: the pool only grows."""
        walk = mode if full else (mode, "decisions")
        while walk not in self._steps:
            if self.work.grown:
                self._bound, self._steps, self.work.grown = {}, {}, 0
            steps = []
            self._node(0, 0, mode, full, steps)
            if not self.work.grown:
                self._steps[walk] = steps  # only once whole
                _charge(self)
        return self._steps[walk]

    def run(self, code: CodeSpec, channel_llrs, mode, full=True):
        """Decode (F, N) channel LLRs of code, the code the program was bound for,
        into mem.decisions and, by the full walk, final_llrs."""
        channel_llrs.take(code.channel_order, 1, self.mem.llr[0], "clip")
        for fn, args in self.steps(mode, full):
            fn(*args)


def _kinds(mask, bases, top):
    """{(stage j, first bit a): kind} of every node that the walk of a code with
    frozen mask and kernel sizes bases visits, the tail stages top .. s: "rate0"
    if j < top and all its bits are frozen, "rep" if all but the last are, else
    "tail" at j = top - 1 and "inner" above, whose children the walk visits."""
    kinds, todo = {}, [(0, 0)]
    while todo:
        j, a = todo.pop()
        size = prod(bases[j:])
        last = a + size - 1
        if j < top and mask[a:last].all():
            kinds[j, a] = "rate0" if mask[last] else "rep"
        elif j == top - 1:
            kinds[j, a] = "tail"
        else:
            kinds[j, a] = "inner"
            todo += [(j + 1, a + b * size // bases[j]) for b in range(bases[j])]
    return kinds


def _decode(code: CodeSpec, channel_llrs, mode, full):
    """The decisions and, by the full walk, the (F, N) final LLRs of decode_batch,
    as fresh arrays, from the program of the code in the cache."""
    check_mode(mode)
    llrs = as_llrs(channel_llrs, "channel LLRs")
    if llrs.ndim != 2 or llrs.shape[1] != code.N:
        raise LengthMismatch(f"expected {code.N} LLRs per frame, got shape {llrs.shape}")
    if code.frozen_mask.flags.writeable:  # it could disagree with code.frozen, the cache key
        raise ValueError("the code's frozen_mask was made writeable")
    if not len(llrs):  # nothing to decode, so bind no program
        return np.zeros(llrs.shape, np.uint8), llrs.copy()
    key = _key(code, len(llrs))
    idle = _PROGRAMS.pop(key, None)
    program, charged = (_Program(code, len(llrs)), 0) if idle is None else (idle, idle.charge)
    try:
        program.run(code, llrs, mode, full)
        return program.mem.decisions.copy(), program.final_llrs.T.copy() if full else None
    finally:
        if llrs.size <= BATCH_LLR_ENTRIES:  # keep no huge memory alive
            _PROGRAMS[key] = program  # the most recently used
            if program.charge != charged:  # the run bound it or more of its steps
                _evict()


def _decisions(code: CodeSpec, channel_llrs, mode):
    """decode_batch(code, channel_llrs, mode).u_hat by the decisions walk, which
    forms no LLR that no decision reads; simulate's decoder."""
    return _decode(code, channel_llrs, mode, False)[0]


def decode_batch(code: CodeSpec, channel_llrs, mode: str = "exact") -> DecodeResult:
    """SC-decode F frames of channel LLRs at once.

    Parameters
    ----------
    code : CodeSpec
        One whose frozen_mask was made writeable raises ValueError.
    channel_llrs : array_like
        (F, N) LLRs, one frame per row in natural codeword order,
        positive favoring bit 0, each at most 1e300 in magnitude:
        larger ones, NaN and inf raise NonFiniteInput (before any shape
        check), and complex ones ValueError.
    mode : str
        "exact" marginalizes with log-sum-exp, "minsum" with max.

    Returns
    -------
    DecodeResult whose u_hat and final_llrs are (F, N): row f holds
    exactly what decode(code, channel_llrs[f], mode) returns. stats are
    the counters of each frame's decode. All are fresh arrays.
    """
    return DecodeResult(*_decode(code, channel_llrs, mode, True), _counters(code.bases).copy())


def _charge(program):
    """Store a program's nbytes, the bytes of the arrays it holds: allocate's
    stage memory, the final LLRs, the thresholds and the roles of its work
    pool, which owns every other array its steps read; and its charge: nbytes
    plus STEP_BYTES per bound step, for the step's Python objects, views and
    few-byte weights."""
    mem = program.mem
    arrays = [*mem.llr, *mem.ps, mem.decisions, program.final_llrs, program.thresholds, *program.work.values()]
    program.nbytes = sum(x.nbytes for x in arrays)
    program.charge = program.nbytes + STEP_BYTES * sum(map(len, program._bound.values()))


def _evict():
    """Drop the least recently used idle programs until the rest charge at most CACHE_BYTES."""
    charges = [(key, program.charge) for key, program in list(_PROGRAMS.items())]
    excess = sum(charge for _, charge in charges) - CACHE_BYTES
    for key, charge in charges:
        if excess <= 0:
            break
        _PROGRAMS.pop(key, None)  # another call may hold it meanwhile
        excess -= charge


def decode(code: CodeSpec, channel_llrs, mode: str = "exact") -> DecodeResult:
    """SC-decode one frame of channel LLRs (natural codeword order).

    Parameters
    ----------
    code : CodeSpec
    channel_llrs : array_like
        N real LLRs, positive favoring bit 0, each at most 1e300 in magnitude.
    mode : str
        "exact" marginalizes with log-sum-exp, "minsum" with max.

    Returns
    -------
    DecodeResult with the N hard decisions, the decision LLR observed
    for every bit, and the update counters.
    """
    result = decode_batch(code, np.asarray(channel_llrs)[None], mode)
    return DecodeResult(u_hat=result.u_hat[0], final_llrs=result.final_llrs[0], stats=result.stats)
