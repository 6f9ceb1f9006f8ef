"""Stage-indexed memory layout and exact element accounting."""

from math import prod

import numpy as np
import pytest

import mkpolar.decoder
from mkpolar import (
    CodeSpec,
    KernelMatrix,
    allocate,
    decode_batch,
    llr_element_count,
    memory_report,
    naive_counts,
    ps_element_count,
)

# (kernel sizes, llr elements, ps elements) for the reference configurations.
COUNT_TABLE = [
    ((2, 2, 3), 22, 15),
    ((2, 2, 2, 3, 3), 139, 102),
    ((2, 2, 2, 2, 3, 3), 283, 210),
    ((2, 2, 2, 2, 2, 2, 2, 3), 766, 573),
    ((2, 2, 3, 3, 3, 3, 3), 1822, 1335),
]


def test_allocate_shapes_223():
    mem = allocate(CodeSpec((2, 2, 3)))
    assert [v.shape for v in mem.llr] == [(1, 12), (1, 6), (1, 3), (1, 1)]
    assert [m.shape for m in mem.ps] == [(1, 6, 1), (1, 3, 2), (1, 1, 3)]
    assert mem.decisions.shape == (1, 12)
    assert mem.llr[0].dtype == np.float64
    assert mem.ps[0].dtype == np.uint8


def test_allocate_shapes_32():
    mem = allocate(CodeSpec((3, 2)))
    assert [v.shape for v in mem.llr] == [(1, 6), (1, 2), (1, 1)]
    assert [m.shape for m in mem.ps] == [(1, 2, 2), (1, 1, 2)]


def test_allocate_shapes_single_kernel():
    mem = allocate(CodeSpec((2,)))
    assert [v.shape for v in mem.llr] == [(1, 2), (1, 1)]
    assert [m.shape for m in mem.ps] == [(1, 1, 1)]


def test_allocate_frames_lead_every_array():
    code = CodeSpec((2, 2, 3))
    mem = allocate(code, 5)
    assert [v.shape for v in mem.llr] == [(5, 12), (5, 6), (5, 3), (5, 1)]
    assert [m.shape for m in mem.ps] == [(5, 6, 1), (5, 3, 2), (5, 1, 3)]
    assert mem.decisions.shape == (5, 12)
    # element totals count one frame
    assert sum(prod(v.shape[1:]) for v in mem.llr) == llr_element_count(code.kernels) == 22
    assert sum(prod(m.shape[1:]) for m in mem.ps) == ps_element_count(code.kernels) == 15


def test_decode_batch_runs_on_allocated_memory(monkeypatch):
    made = []

    def recording_allocate(code, frames=1):
        made.append(allocate(code, frames))
        return made[-1]

    monkeypatch.setattr(mkpolar.decoder, "allocate", recording_allocate)
    monkeypatch.setattr(mkpolar.decoder, "_PROGRAMS", {})
    code = CodeSpec((2, 2, 3), (0, 1, 2))
    rng = np.random.default_rng(5)
    decode_batch(code, rng.uniform(-3, 3, (3, 12)))
    result = decode_batch(code, rng.uniform(-3, 3, (3, 12)))
    # the memory is bound once per frame count and kept for the next call;
    # each call returns a copy of its decisions
    assert len(made) == 1
    assert [v.shape for v in made[0].llr] == [(3, 12), (3, 6), (3, 3), (3, 1)]
    assert np.array_equal(result.u_hat, made[0].decisions)
    assert not np.shares_memory(result.u_hat, made[0].decisions)


def test_stage_one_matrix_is_one_column_short():
    for bases in [(2, 2), (3, 2), (3, 3, 3), (2, 3, 2)]:
        mem = allocate(CodeSpec(bases))
        assert mem.ps[0].shape[-1] == bases[0] - 1
        for j in range(1, len(bases)):
            assert mem.ps[j].shape[-1] == bases[j]


@pytest.mark.parametrize("sizes,llr,ps", COUNT_TABLE)
def test_reference_counts(sizes, llr, ps):
    assert llr_element_count(sizes) == llr
    assert ps_element_count(sizes) == ps


def test_naive_counts():
    assert naive_counts((2, 2, 3)) == (48, 36)
    assert naive_counts((2, 2, 3, 3, 3, 3, 3)) == (7776, 6804)


def test_counts_match_allocation_random_sequences():
    # The closed-form counters, the per-stage sums, and the actually
    # allocated array sizes must agree for arbitrary kernel sequences.
    rng = np.random.default_rng(3)
    k5 = KernelMatrix(np.eye(5, dtype=np.uint8))
    for _ in range(60):
        sizes = tuple(int(p) for p in rng.choice([2, 3, 5], size=rng.integers(1, 8)))
        kernels = [k5 if p == 5 else p for p in sizes]
        code = CodeSpec(kernels)
        mem = allocate(code)
        n = code.N
        rest = [int(np.prod(sizes[j + 1 :])) for j in range(len(sizes))]
        llr_sum = n + sum(rest)
        ps_sum = rest[0] * (sizes[0] - 1) + sum(
            r * p for r, p in zip(rest[1:], sizes[1:])
        )
        assert llr_element_count(kernels) == llr_sum == sum(prod(v.shape[1:]) for v in mem.llr)
        assert ps_element_count(kernels) == ps_sum == sum(prod(m.shape[1:]) for m in mem.ps)
        # shrinking LLR chain stays within [N + 1, 2N)
        assert n + 1 <= llr_sum < 2 * n


def test_memory_report_counts_kernel_matrices():
    # the report counts the given kernels, also sizes with no built-in kernel
    k4 = KernelMatrix(np.tril(np.ones((4, 4), dtype=np.uint8)))
    k5 = KernelMatrix(np.eye(5, dtype=np.uint8))
    for kernels, sizes in (([k5, 2], (5, 2)), ([2, k4, 3], (2, 4, 3))):
        r = memory_report(kernels)
        mem = allocate(CodeSpec(kernels))
        assert r.kernel_sizes == sizes
        assert r.llr_elements == llr_element_count(kernels) == sum(v.size for v in mem.llr)
        assert r.ps_elements == ps_element_count(kernels) == sum(m.size for m in mem.ps)
        assert (r.llr_elements_naive, r.ps_elements_naive) == naive_counts(kernels)


def test_memory_report_fields():
    r = memory_report((2, 2, 3), q_bits=6)
    assert r.N == 12 and r.s == 3
    assert r.llr_elements == 22 and r.ps_elements == 15
    assert r.llr_elements_naive == 48 and r.ps_elements_naive == 36
    assert r.total_bits == 6 * 22 + 15 + 12 == 159


def test_memory_report_q_scaling():
    r4 = memory_report((2, 2, 3), q_bits=4)
    assert r4.total_bits == 4 * 22 + 15 + 12
    with pytest.raises(ValueError):
        memory_report((2, 2, 3), q_bits=0)


def test_memory_report_rejects_empty():
    with pytest.raises(ValueError):
        memory_report(())
