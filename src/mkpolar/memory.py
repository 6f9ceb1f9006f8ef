"""Stage-indexed decoder memory and its exact element accounting.

The SC decoder works on one LLR vector per stage plus the channel vector:
stage j holds p_{j+1} * ... * p_s entries, so the vectors shrink from N
down to a single decision LLR. Partial sums live in one bit matrix per
stage, width p_j and depth p_{j+1} * ... * p_s, except stage 1 whose
matrix is one column narrower (p_1 - 1): its final column would only be
needed after the last bit, which terminates the decode instead. A naive
layout keeps s + 1 full-length LLR vectors and s full-length bit vectors.

Matrices are stored as (depth, width) arrays: ``ps[j-1][k, c]`` is the
partial sum of sub-block c at block position k of stage j.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .codes import CodeSpec
from .kernels import KernelMatrix


def _sizes(kernels):
    sizes = tuple(
        k.p if isinstance(k, KernelMatrix) else int(k) for k in kernels
    )
    if not sizes:
        raise ValueError("kernel sequence must be non-empty")
    if any(p < 2 for p in sizes):
        raise ValueError("kernel sizes must be at least 2")
    return sizes


def llr_element_count(kernels) -> int:
    """Total LLR entries of the shrinking layout: N + N/p_1 + ... + 1."""
    sizes = _sizes(kernels)
    total = sizes[0] + 1
    for p in sizes[1:]:
        total = total * p + 1
    return total


def ps_element_count(kernels) -> int:
    """Total partial-sum bits: (N/p_1)(p_1 - 1) + sum_{j>=2} N/(p_1..p_{j-1})."""
    sizes = _sizes(kernels)
    if len(sizes) == 1:
        return sizes[0] - 1
    total = sizes[0] * sizes[1]
    for p in sizes[2:]:
        total = (total + 1) * p
    return total


def naive_counts(kernels) -> tuple:
    """(llr, ps) element counts of the naive full-length layout."""
    sizes = _sizes(kernels)
    n = prod(sizes)
    s = len(sizes)
    return n * (s + 1), n * s


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
    sizes = _sizes(kernels)
    if q_bits < 1:
        raise ValueError("q_bits must be at least 1")
    n = prod(sizes)
    llr = llr_element_count(sizes)
    ps = ps_element_count(sizes)
    llr_naive, ps_naive = naive_counts(sizes)
    return MemoryReport(
        kernel_sizes=sizes,
        N=n,
        s=len(sizes),
        llr_elements=llr,
        ps_elements=ps,
        llr_elements_naive=llr_naive,
        ps_elements_naive=ps_naive,
        q_bits=q_bits,
        total_bits=q_bits * llr + ps + n,
    )


def stage_shapes(bases) -> tuple:
    """Shapes of the stage-indexed memory of one frame.

    Returns (llr_sizes, ps_shapes): the length of the LLR vector of
    stages 0 .. s, and the (depth, width) of the partial-sum matrix of
    stages 1 .. s.
    """
    s = len(bases)
    llr_sizes = tuple(prod(bases[j:]) for j in range(s + 1))
    ps_shapes = tuple(
        (prod(bases[j:]), bases[0] - 1 if j == 1 else bases[j - 1])
        for j in range(1, s + 1)
    )
    return llr_sizes, ps_shapes


class DecoderMemory:
    """Working state for one in-flight SC decode.

    Attributes
    ----------
    llr : list of ndarray
        llr[0] is the ingested channel vector (length N); llr[j] is the
        stage-j vector of length p_{j+1} * ... * p_s; llr[s] is the
        single decision LLR.
    ps : list of ndarray
        ps[j-1] is the stage-j partial-sum matrix, shape (depth, width).
    decisions : ndarray
        Hard decisions for all N input bits.

    Access counters (llr_updates, ps_reads, ps_writes, ps_propagations)
    are column-granular tallies filled in by the decoder; the stage-1
    read/write counters include a slot for the absent column p_1 - 1 so
    tests can assert it is never touched.
    """

    def __init__(self, code: CodeSpec):
        bases = code.bases
        s = len(bases)
        llr_sizes, ps_shapes = stage_shapes(bases)
        self.code = code
        self.llr = [np.zeros(n, dtype=np.float64) for n in llr_sizes]
        self.ps = [np.zeros(shape, dtype=np.uint8) for shape in ps_shapes]
        self.decisions = np.zeros(code.N, dtype=np.uint8)
        self.llr_updates = np.zeros(s, dtype=np.int64)
        self.ps_propagations = np.zeros(s, dtype=np.int64)
        self.ps_reads = [np.zeros(bases[j], dtype=np.int64) for j in range(s)]
        self.ps_writes = [np.zeros(bases[j], dtype=np.int64) for j in range(s)]

    def llr_element_total(self) -> int:
        return sum(v.size for v in self.llr)

    def ps_element_total(self) -> int:
        return sum(m.size for m in self.ps)


def allocate(code: CodeSpec) -> DecoderMemory:
    """Allocate the stage-indexed memory for one decode of `code`."""
    return DecoderMemory(code)
