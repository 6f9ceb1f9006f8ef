"""Stage-indexed decoder memory and its exact element accounting.

The SC decoder works on one LLR vector per stage plus the channel vector:
stage j holds p_{j+1} * ... * p_s entries, so the vectors shrink from N
down to a single decision LLR. Partial sums live in one bit matrix per
stage, width p_j and depth p_{j+1} * ... * p_s, except stage 1 whose
matrix is one column narrower (p_1 - 1): its final column would only be
needed after the last bit, which terminates the decode instead. A naive
layout keeps s + 1 full-length LLR vectors and s full-length bit vectors.
_layout states these sizes once: allocate's arrays and memory_report's
counts both read it.

allocate builds this memory for F frames at once, each array with a
leading frame axis (the inter-frame layout): ``ps[j-1][f, k, c]`` is the
partial sum of sub-block c at block position k of stage j in frame f.
The decoder runs on these arrays plus, per stage j, a work table of the
2^p_j - 1 candidate updates of each kernel block (decoder._Program). Its
tail decides into ``decisions`` and writes neither the stage-s vector
and partial-sum matrix nor, under the look-ahead, the stage-(s-1) vector
(decoder._Program._bind_tail).
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .codes import CodeSpec, _as_kernels
from .kernels import _whole


def _layout(sizes):
    """One frame's layout for kernel sizes (p_1, ..., p_s): the LLR entries
    of stages 0 .. s, then the (depth, width) of each partial-sum matrix."""
    entries = [prod(sizes[j:]) for j in range(len(sizes) + 1)]
    matrices = [(entries[j], p - 1 if j == 1 else p) for j, p in enumerate(sizes, start=1)]
    return entries, matrices


def llr_element_count(kernels) -> int:
    """Total LLR entries of the shrinking layout: N + N/p_1 + ... + 1."""
    return memory_report(kernels).llr_elements


def ps_element_count(kernels) -> int:
    """Total partial-sum bits: (N/p_1)(p_1 - 1) + sum_{j>=2} N/(p_1..p_{j-1})."""
    return memory_report(kernels).ps_elements


def naive_counts(kernels) -> tuple:
    """(llr, ps) element counts of the naive full-length layout."""
    r = memory_report(kernels)
    return r.llr_elements_naive, r.ps_elements_naive


@dataclass
class MemoryReport:
    """Element counts and a quantized bit total for one configuration.

    total_bits charges q_bits per LLR entry, one bit per partial sum and
    one bit per decision.
    """

    kernel_sizes: tuple
    N: int
    s: int
    llr_elements: int
    ps_elements: int
    llr_elements_naive: int
    ps_elements_naive: int
    q_bits: int
    total_bits: int


def memory_report(kernels, q_bits: int = 6) -> MemoryReport:
    """Build the element-count report for a kernel sequence."""
    sizes = tuple(k.p for k in _as_kernels(kernels))
    q_bits = _whole(q_bits, "q_bits", 1)
    entries, matrices = _layout(sizes)
    n, s = entries[0], len(sizes)
    llr = sum(entries)
    ps = sum(depth * width for depth, width in matrices)
    return MemoryReport(
        kernel_sizes=sizes,
        N=n,
        s=s,
        llr_elements=llr,
        ps_elements=ps,
        llr_elements_naive=n * (s + 1),
        ps_elements_naive=n * s,
        q_bits=q_bits,
        total_bits=q_bits * llr + ps + n,
    )


class DecoderMemory:
    """The stage-indexed memory of F in-flight SC decodes.

    Attributes
    ----------
    llr : list of ndarray
        llr[0] is the ingested channel vector, (F, N); llr[j] is the
        stage-j vector, (F, p_{j+1} * ... * p_s); llr[s] is the single
        decision LLR, (F, 1).
    ps : list of ndarray
        ps[j-1] is the stage-j partial-sum matrix, (F, depth, width).
    decisions : ndarray
        Hard decisions for all N input bits, (F, N).
    """

    def __init__(self, code: CodeSpec, frames: int = 1):
        entries, matrices = _layout(code.bases)
        self.llr = [np.zeros((frames, n), dtype=np.float64) for n in entries]
        self.ps = [np.zeros((frames,) + shape, dtype=np.uint8) for shape in matrices]
        self.decisions = np.zeros((frames, code.N), dtype=np.uint8)


def allocate(code: CodeSpec, frames: int = 1) -> DecoderMemory:
    """Allocate the stage-indexed memory for `frames` decodes of `code`."""
    return DecoderMemory(code, frames)
