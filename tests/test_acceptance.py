"""Release acceptance checks.

Each test covers one numbered criterion from the project checklist,
prints a single ``criterion N: PASS`` / ``criterion N: FAIL`` line
(visible with ``pytest -s``), and then asserts. Criteria 5 and 6 feed
their decode statistics into a shared accumulator that criterion 8
inspects.
"""

import itertools
from math import prod
from time import perf_counter

import numpy as np

from mkpolar import (
    LLR_MAX,
    CodeSpec,
    KernelMatrix,
    allocate,
    awgn_llrs,
    construct_frozen_mc,
    decode,
    encode,
    llr_element_count,
    naive_counts,
    ps_element_count,
    SimConfig,
    simulate,
)
from mkpolar.cli import run as cli_run
from oracles import exact_sc_oracle_llr, naive_generator
from reference_sc import all_kernel_sequences, textbook_sc_decode

# the reference length-12 transformation matrix (T2 x T2 x T3)
G12 = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1],
        [0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)

# counts for the five reference configurations:
# (kernels, (llr, ps), (llr naive, ps naive))
MEMORY_TABLE = [
    ((2, 2, 3), (22, 15), (48, 36)),
    ((2, 2, 2, 3, 3), (139, 102), (432, 360)),
    ((2, 2, 2, 2, 3, 3), (283, 210), (1008, 864)),
    ((2, 2, 2, 2, 2, 2, 2, 3), (766, 573), (3456, 3072)),
    ((2, 2, 3, 3, 3, 3, 3), (1822, 1335), (7776, 6804)),
]

# phantom-column access counters collected by criteria 5 and 6:
# (kernel sizes, reads of the absent stage-1 column, writes to it)
PS_ACCESS = []


def report(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    return ok


def record_access(bases, stats):
    PS_ACCESS.append(
        (bases, int(stats.ps_reads[0][bases[0] - 1]), int(stats.ps_writes[0][bases[0] - 1]))
    )


def test_criterion_01_memory_table():
    start = perf_counter()
    ok = True
    for sizes, (llr, ps), naive in MEMORY_TABLE:
        ok &= llr_element_count(sizes) == llr
        ok &= ps_element_count(sizes) == ps
        ok &= naive_counts(sizes) == naive
    elapsed = perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(1, ok), f"memory table mismatch or too slow ({elapsed:.3f}s)"


def test_criterion_02_count_identities():
    rng = np.random.default_rng(2024)
    k5 = KernelMatrix(np.eye(5, dtype=np.uint8))
    ok = True
    for _ in range(200):
        sizes = tuple(int(p) for p in rng.choice([2, 3, 5], size=rng.integers(1, 9)))
        kernels = [k5 if p == 5 else p for p in sizes]
        s = len(sizes)
        llr_sum = sum(prod(sizes[j:]) for j in range(s + 1))
        ps_sum = prod(sizes[1:]) * (sizes[0] - 1) + sum(
            prod(sizes[j:]) * sizes[j - 1] for j in range(2, s + 1)
        )
        mem = allocate(CodeSpec(kernels))
        ok &= llr_element_count(kernels) == llr_sum == sum(prod(v.shape[1:]) for v in mem.llr)
        ok &= ps_element_count(kernels) == ps_sum == sum(prod(m.shape[1:]) for m in mem.ps)
        if not ok:
            break
    assert report(2, ok), f"count identity broken for {sizes}"


def test_criterion_03_digit_table(capsys):
    status = cli_run(["digits", "--kernels", "2,2,3"])
    out = capsys.readouterr().out
    expected = (
        "i,0,1,2,3,4,5,6,7,8,9,10,11\n"
        "b1,0,0,0,0,0,0,1,1,1,1,1,1\n"
        "b2,0,0,0,1,1,1,0,0,0,1,1,1\n"
        "b3,0,1,2,0,1,2,0,1,2,0,1,2\n"
    )
    ok = status == 0 and out == expected
    assert report(3, ok), f"digit table mismatch:\n{out}"


def test_criterion_04_encoder_equivalence():
    rng = np.random.default_rng(4)
    ok = True
    detail = ""
    # the reference length-12 matrix, row by row via unit vectors
    code12 = CodeSpec((2, 2, 3))
    if not np.array_equal(naive_generator((2, 2, 3)), G12):
        ok, detail = False, "materialized length-12 generator is wrong"
    for r in range(12):
        e = np.zeros(12, dtype=np.uint8)
        e[r] = 1
        if not np.array_equal(encode(code12, e), G12[r]):
            ok, detail = False, f"length-12 generator row {r} mismatch"
    for bases in all_kernel_sequences(72):
        code = CodeSpec(bases)
        g = naive_generator(bases)
        n = code.N
        eye = np.eye(n, dtype=np.uint8)
        for r in range(n):
            if not np.array_equal(encode(code, eye[r]), g[r]):
                ok, detail = False, f"{bases}: generator row {r} mismatch"
                break
        u = rng.integers(0, 2, (100, n), dtype=np.uint8)
        want = u @ g % 2
        for r in range(100):
            if not np.array_equal(encode(code, u[r]), want[r]):
                ok, detail = False, f"{bases}: random input {r} mismatch"
                break
        if not ok:
            break
    assert report(4, ok), detail


def _round_trip_codes():
    orderings = set()
    for multiset in [(2, 2, 3), (2, 3, 3), (2, 2, 2, 3)]:
        orderings.update(itertools.permutations(multiset))
    return sorted(orderings)


def test_criterion_05_noiseless_round_trip():
    start = perf_counter()
    ok = True
    detail = ""
    for ci, bases in enumerate(_round_trip_codes()):
        n = prod(bases)
        rng = np.random.default_rng([5, ci])
        frozen_sets = []
        for _ in range(4):
            size = int(rng.integers(1, n))
            frozen_sets.append(tuple(sorted(rng.choice(n, size, replace=False))))
        for m in range(1000):
            code = CodeSpec(bases, frozen_sets[m % 4])
            u = np.zeros(n, dtype=np.uint8)
            u[list(code.info)] = rng.integers(0, 2, code.K)
            llrs = LLR_MAX * (1.0 - 2.0 * encode(code, u))
            for mode in ("exact", "minsum"):
                res = decode(code, llrs, mode)
                record_access(bases, res.stats)
                if not np.array_equal(res.u_hat, u):
                    ok = False
                    detail = f"{bases} {mode} message {m} not recovered"
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = perf_counter() - start
    if ok and elapsed >= 30.0:
        ok, detail = False, f"round-trip workload took {elapsed:.1f}s"
    assert report(5, ok), detail


def test_criterion_06_oracle_llr_equality():
    ok = True
    detail = ""
    for bases in all_kernel_sequences(12):
        code = CodeSpec(bases)
        rng = np.random.default_rng([6, code.N, len(bases)])
        for v in range(100):
            llrs = rng.uniform(-3.0, 3.0, code.N)
            res = decode(code, llrs)
            record_access(bases, res.stats)
            for i in range(code.N):
                want = exact_sc_oracle_llr(code, llrs, i, res.u_hat[:i])
                if abs(res.final_llrs[i] - want) > 1e-9:
                    ok = False
                    detail = (
                        f"{bases} vector {v} bit {i}: "
                        f"{res.final_llrs[i]} vs oracle {want}"
                    )
                    break
            if not ok:
                break
        if not ok:
            break
    assert report(6, ok), detail


def test_criterion_07_update_count_law():
    ok = True
    detail = ""
    rng = np.random.default_rng(7)
    for bases in [(2, 3, 2), (2, 2, 3), (3, 3), (2, 2, 2, 2), (3, 2, 2, 3)]:
        code = CodeSpec(bases)
        res = decode(code, rng.uniform(-3, 3, code.N))
        acc = 1
        for j, p in enumerate(bases):
            acc *= p
            if int(res.stats.llr_updates[j]) != acc:
                ok = False
                detail += f" [{bases}: stage {j + 1} count {res.stats.llr_updates[j]} != {acc}]"
    # all-binary total: summing the per-stage law 2**j over j = 1..s gives
    # exactly 2N - 2 refreshes, and no SC schedule can do fewer, since each
    # of the 2**j digit prefixes of stage j needs its own refresh. The
    # total is therefore below s*N/2 only from s = 4 on; at s = 2 and 3
    # (6 vs 4, 14 vs 12) that bound cannot be met.
    for s in range(2, 8):
        code = CodeSpec((2,) * s)
        res = decode(code, np.zeros(code.N))
        total = int(res.stats.llr_updates.sum())
        want = 2 * code.N - 2
        if total != want:
            ok = False
            detail += f" [s={s}: total {total} != {want}]"
    assert report(7, ok), f"update-count law violated:{detail}"


def test_criterion_08_stage_one_column_untouched():
    if not PS_ACCESS:
        # standalone fallback: run a small instrumented workload
        rng = np.random.default_rng(8)
        for bases in [(2, 2, 3), (3, 2, 2), (3, 3)]:
            code = CodeSpec(bases)
            for _ in range(50):
                res = decode(code, rng.uniform(-4, 4, code.N))
                record_access(bases, res.stats)
    touched = [entry for entry in PS_ACCESS if entry[1] or entry[2]]
    ok = len(PS_ACCESS) > 0 and not touched
    assert report(8, ok), f"absent column accessed: {touched[:5]}"


def test_criterion_09_binary_crosscheck():
    bases = (2,) * 6
    frozen = construct_frozen_mc(bases, 32, 2.0, 300, 77)
    code = CodeSpec(bases, frozen)
    mask = np.asarray(code.frozen_mask)
    info = list(code.info)
    ok = True
    detail = ""
    for f in range(1000):
        rng = np.random.default_rng([9, f])
        u = np.zeros(64, dtype=np.uint8)
        u[info] = rng.integers(0, 2, 32)
        llrs = awgn_llrs(encode(code, u), 2.0, 0.5, rng)
        for mode in ("exact", "minsum"):
            got = decode(code, llrs, mode).u_hat
            want = textbook_sc_decode(llrs, mask, mode)
            if not np.array_equal(got, want):
                ok = False
                detail = f"frame {f} mode {mode} disagrees with reference"
                break
        if not ok:
            break
    assert report(9, ok), detail


def test_criterion_10_fer_decreases_with_snr():
    code = CodeSpec((2, 2, 3), (0, 1, 2, 3, 4, 6))
    result = simulate(
        SimConfig(
            code,
            snr_points_db=(0.0, 4.0),
            max_frames=200000,
            target_frame_errors=100,
            seed=11,
        )
    )
    low, high = result.points
    ok = (
        low.frame_errors >= 100
        and high.frame_errors >= 100
        and high.fer < low.fer
    )
    assert report(10, ok), (
        f"FER {low.fer:.4g} @ {low.ebn0_db} dB ({low.frame_errors} errors), "
        f"{high.fer:.4g} @ {high.ebn0_db} dB ({high.frame_errors} errors)"
    )
