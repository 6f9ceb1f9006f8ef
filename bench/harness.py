"""Inputs, rounds, output checks and metrics of the mkpolar benchmark.

bench/run.py is the command; this module holds what it runs. Importing it
imports numpy, so run.py imports it only after pinning BLAS threads.
"""

import json
import os
import platform
import signal
import statistics
import sys
import traceback
import tracemalloc
from math import ceil, prod
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from spans import Tracer, self_times
from spec import MODES, PAPER_CODES

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# decode-paper frames: about BITS_PER_CODE coded bits per code and mode,
# every NOISELESS_EVERY-th frame (from frame 1) noiseless, the rest AWGN.
BITS_PER_CODE = 1944
NOISELESS_EVERY = 4
DECODE_SNR_DB = 2.0

SIM_BASES = (2, 2, 3)
SIM_FROZEN = (0, 1, 2, 3, 4, 6)
SIM_SNRS = (0.0, 4.0)
SIM_TARGET = 100
SIM_FULL_MAX_FRAMES = 1_000_000
SIM_SHORT_MAX_FRAMES = 300

CONSTRUCT_BASES = (2, 2, 2, 2, 3, 3)
CONSTRUCT_K = 72
CONSTRUCT_SNR_DB = 1.0
CONSTRUCT_FRAMES = 40
# The construct-mc segment makes this many constructions, call c seeded
# with --seed + c * CONSTRUCT_FRAMES.
CONSTRUCT_CALLS = 5
# The reference's own genie estimate: frames, seed, and the z-score above
# which an information bit counts as significantly less reliable than a
# frozen one.
GENIE_FRAMES = 2000
GENIE_SEED = 3
GENIE_Z_MARGIN = 6.0

LLR_TOLERANCE = 1e-9
# The shared 2-vCPU host these figures come from swings in speed by up to
# 2x within seconds and runs slow for spells of ten seconds and more. So
# every segment of a round is timed together with the host's speed during
# it: HostClock runs a fixed calibration chunk every CAL_EVERY_S while the
# segment's calls run. The segment's time is multiplied by CAL_REFERENCE_S
# over the chunk's mean time, so that it reads as on a host where the chunk
# takes CAL_REFERENCE_S, and a rate is the work of all segments of its
# kind over the sum of their scaled times. A segment with fewer than
# MIN_SAMPLES chunks is scaled by the mean of every chunk of its kind.
CAL_REFERENCE_S = 1.2e-4
CAL_EVERY_S = 0.0025
MIN_SAMPLES = 8
# The set-up probe samples the chunk after set-up, not during it, and
# reads it at this quantile (see README).
SETUP_QUANTILE = 0.05
KINDS = ("decode", "simulate", "construct")

ROUNDS = {
    "decode-paper": ("decode", "simulate-short", "construct-short"),
    "simulate-fer": ("simulate-full", "decode", "construct-short", "simulate-short",
                     "decode", "construct-short"),
    "construct-mc": ("construct", "simulate-short", "decode", "simulate-short"),
}


def import_package():
    """Import mkpolar from the source tree next to this benchmark."""
    init = SRC / "mkpolar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import mkpolar
    import mkpolar.codes
    import mkpolar.decoder
    import mkpolar.memory
    import mkpolar.simulation

    if Path(mkpolar.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported mkpolar from {mkpolar.__file__}, not {init}")
    return mkpolar


class HostClock:
    """Samples the host's speed while the program's calls run.

    Once ``start()`` is called, an interval timer (SIGALRM) runs a fixed
    calibration chunk, small numpy operations and a Python loop like the
    package's own mix, every ``every`` seconds of wall time, whatever the
    program is doing at that moment. The chunk's time is appended to the
    list ``into``; no chunk runs while ``into`` is None. ``now()`` is a
    clock that leaves out the time the chunks take.
    """

    _a = np.random.default_rng(0).normal(size=(4, 3))
    _b = np.random.default_rng(1).normal(size=(3, 8))

    def __init__(self, every):
        self.every = every
        self.into = None
        self._spent = 0.0
        self._busy = False

    def _chunk(self):
        for _ in range(10):
            m = self._a @ self._b
            top = m.max(axis=1)
            np.clip(top + np.log(np.exp(m - top[:, None]).sum(axis=1)), -40.0, 40.0)
        total = 0
        for i in range(500):
            total += i * i
        return total

    def sample(self, into):
        if self._busy:  # an alarm that fired inside a chunk
            return
        self._busy = True
        start = perf_counter()
        self._chunk()
        elapsed = perf_counter() - start
        into.append(elapsed)
        self._spent += elapsed
        self._busy = False

    def _alarm(self, signum, frame):
        if self.into is not None:
            self.sample(self.into)

    def start(self):
        if self.every != float("inf"):
            signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        # The handler stays: an alarm already on its way finds into None.
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def now(self):
        return perf_counter() - self._spent


def build_codes(mk, frozen_sets):
    """The paper codes and the simulation code, with their cached tables."""
    paper = [mk.CodeSpec(b, frozen_sets[",".join(map(str, b))]) for b in PAPER_CODES]
    sim_code = mk.CodeSpec(SIM_BASES, SIM_FROZEN)
    for code in paper + [sim_code]:
        code.digit_table, code.start_stages, code.permutation  # fill the caches
    return paper, sim_code


class Fixture:
    """Every CodeSpec the workloads use, built with its cached tables."""

    def __init__(self, mk):
        self.mk = mk
        self.frozen_sets = json.loads((BENCH_DIR / "frozen_sets.json").read_text())
        self.paper, self.sim_code = build_codes(mk, self.frozen_sets)

    def warm_up(self):
        mk = self.mk
        for code in self.paper:
            for mode in MODES:
                mk.decoder.decode(code, np.ones(code.N), mode)
        mk.simulation.simulate(mk.SimConfig(self.sim_code, SIM_SNRS, max_frames=1))
        mk.codes.construct_frozen_mc(CONSTRUCT_BASES, CONSTRUCT_K, CONSTRUCT_SNR_DB, 1, 0)


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Segment:
    """The timed calls of one segment of a round: their work (coded bits
    or frames) and seconds, and the chunk times sampled while they ran."""

    def __init__(self, kind):
        self.kind = kind
        self.parts = {}  # (N, mode) for decode, else None -> [work, seconds]
        self.samples = []

    def work(self):
        return sum(w for w, _ in self.parts.values())

    def seconds(self):
        return sum(t for _, t in self.parts.values())


class Totals:
    """Operations counted and segments timed in one pass."""

    def __init__(self, cal_every):
        self.attempted = self.failed = 0
        self.segments = []
        self.sim_frames = 0
        self.clock = HostClock(cal_every)

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok

    def segment(self, kind):
        self.segments.append(Segment(kind))
        return self.segments[-1]

    def timed(self, segment, key, work_of, fn, *args):
        """Call ``fn(*args)`` and add its time, and ``work_of`` its output,
        to ``segment`` under ``key``."""
        clock = self.clock
        clock.into = segment.samples
        try:
            start = clock.now()
            out = fn(*args)
            elapsed = clock.now() - start
        finally:
            clock.into = None
        part = segment.parts.setdefault(key, [0, 0.0])
        part[0] += work_of(out)
        part[1] += elapsed
        return out

    def rate(self, kind):
        """Work per second of every segment of ``kind``, each segment's
        time scaled to the reference host speed (see CAL_REFERENCE_S)."""
        segments = [s for s in self.segments if s.kind == kind]
        pooled = float(np.mean([t for s in segments for t in s.samples]))
        scaled = 0.0
        for s in segments:
            chunk = float(np.mean(s.samples)) if len(s.samples) >= MIN_SAMPLES else pooled
            scaled += s.seconds() * CAL_REFERENCE_S / chunk
        return sum(s.work() for s in segments) / scaled


class Bench:
    """One run's inputs, reference expectations, segments and checks."""

    def __init__(self, mk, fixture, seed):
        self.mk = mk
        self.fx = fixture
        self.seed = seed
        self.frames = [self._paper_frames(ci, code) for ci, code in enumerate(fixture.paper)]
        # One decode pass spreads the frames of every code and mode evenly
        # over its length, so that each code and mode meets the host alike.
        self.decode_order = sorted(
            ((ci, mode, f) for ci, fr in enumerate(self.frames) for mode in MODES
             for f in range(len(fr["llrs"]))),
            key=lambda k: ((k[2] + 0.5) / len(self.frames[k[0]]["llrs"]), k[0], k[1]),
        )
        self.expected = {}
        self.sim_recount = None
        self.genie_rates = None

    # ---- inputs -------------------------------------------------------

    def _paper_frames(self, ci, code):
        rng = np.random.default_rng([self.seed, 1, ci])
        info = np.asarray(code.info)
        count = ceil(BITS_PER_CODE / code.N)
        us, llrs = [], []
        for f in range(count):
            u, llr = reference.awgn_frame(code.bases, info, DECODE_SNR_DB, code.K / code.N, rng)
            if f % NOISELESS_EVERY == 1:
                llr = reference.LLR_MAX * (1.0 - 2.0 * reference.encode(code.bases, u[None, :])[0])
            us.append(u)
            llrs.append(llr)
        noiseless = np.array([f % NOISELESS_EVERY == 1 for f in range(count)])
        return {"u": np.array(us), "llrs": np.array(llrs), "noiseless": noiseless}

    # ---- expectations, computed once and outside every timed region ----

    def prepare(self):
        for ci, code in enumerate(self.fx.paper):
            fr = self.frames[ci]
            awgn = np.flatnonzero(~fr["noiseless"])
            for mode in MODES:
                follow = np.array(
                    [self.mk.decoder.decode(code, fr["llrs"][f], mode).u_hat for f in awgn]
                )
                decisions, llrs = reference.sc_decode(
                    code.bases, fr["llrs"][awgn], code.frozen_mask, mode, follow=follow
                )
                self.expected[ci, mode] = (awgn, decisions, llrs)
        self.sim_recount = self._reference_simulation()
        n = prod(CONSTRUCT_BASES)
        llrs = reference.channel_llrs(
            np.zeros((GENIE_FRAMES, n), dtype=np.uint8), CONSTRUCT_SNR_DB, CONSTRUCT_K / n,
            np.random.default_rng(GENIE_SEED),
        )
        self.genie_rates = reference.genie_error_rates(CONSTRUCT_BASES, llrs)

    def _reference_simulation(self):
        """(frames, frame errors, bit errors) per SNR point of the short run,
        recounted from the documented per-frame seeds (seed, point, frame)."""
        code = self.fx.sim_code
        info = np.asarray(code.info)
        out = []
        for point, snr in enumerate(SIM_SNRS):
            frames = [
                reference.awgn_frame(
                    code.bases, info, snr, code.K / code.N,
                    np.random.default_rng([self.seed, point, f]),
                )
                for f in range(SIM_SHORT_MAX_FRAMES)
            ]
            u = np.array([fr[0] for fr in frames])
            llrs = np.array([fr[1] for fr in frames])
            decisions, _ = reference.sc_decode(code.bases, llrs, code.frozen_mask)
            wrong = (decisions[:, info] != u[:, info]).sum(axis=1)
            frames_run = frame_errors = bit_errors = 0
            for w in wrong:
                if frame_errors >= SIM_TARGET:
                    break
                frames_run += 1
                frame_errors += w > 0
                bit_errors += int(w)
            out.append((frames_run, int(frame_errors), bit_errors))
        return out

    # ---- checks -------------------------------------------------------

    def decode_ok(self, ci, mode, f, res):
        code = self.fx.paper[ci]
        fr = self.frames[ci]
        bases = code.bases
        st = res.stats
        prefix = np.cumprod(bases)
        ok = np.array_equal(st.llr_updates, prefix)
        ok &= st.ps_propagations[0] == 0
        ok &= np.array_equal(st.ps_propagations[1:], prefix[:-1] - 1)
        ok &= st.ps_reads[0][bases[0] - 1] == 0 and st.ps_writes[0][bases[0] - 1] == 0
        if fr["noiseless"][f]:
            return bool(ok and np.array_equal(res.u_hat, fr["u"][f]))
        awgn, decisions, llrs = self.expected[ci, mode]
        row = int(np.searchsorted(awgn, f))
        ok &= bool(np.all(np.abs(res.final_llrs - llrs[row]) <= LLR_TOLERANCE))
        # A decision LLR within the tolerance of 0 is a tie either way.
        differ = res.u_hat != decisions[row]
        tie = ~code.frozen_mask & (np.abs(llrs[row]) <= LLR_TOLERANCE)
        return bool(ok and not np.any(differ & ~tie))

    def simulate_ok(self, result, full):
        k = self.fx.sim_code.K
        pts = result.points
        ok = len(pts) == len(SIM_SNRS)
        for p in pts:
            ok &= p.frame_errors <= p.bit_errors <= k * p.frame_errors
        if full:
            ok &= all(p.frame_errors == SIM_TARGET for p in pts)
            ok &= pts[0].fer > pts[1].fer
        else:
            got = [(p.frames, p.frame_errors, p.bit_errors) for p in pts]
            ok &= got == self.sim_recount
        return bool(ok)

    def construct_ok(self, frozen, frames):
        n = prod(CONSTRUCT_BASES)
        fz = np.asarray(frozen, dtype=np.int64)
        ok = len(fz) == n - CONSTRUCT_K and np.all(np.diff(fz) > 0) and fz.min() >= 0 and fz.max() < n
        if not ok:
            return False
        mask = np.zeros(n, dtype=bool)
        mask[fz] = True
        r_info = self.genie_rates[~mask][:, None]
        r_frozen = self.genie_rates[mask][None, :]
        variance = (r_info + r_frozen) * (1.0 / GENIE_FRAMES + 1.0 / frames)
        z = (r_info - r_frozen) / np.sqrt(np.maximum(variance, 1e-300))
        return not np.any(z > GENIE_Z_MARGIN)

    # ---- segments -----------------------------------------------------

    def _op(self, totals, action):
        try:
            ok = action()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        totals.op(ok)

    def decode_pass(self, totals):
        decode = self.mk.decoder.decode
        segment = totals.segment("decode")
        results = []
        for ci, mode, f in self.decode_order:
            try:
                code = self.fx.paper[ci]
                res = totals.timed(segment, (code.N, mode), lambda _: code.N,
                                   decode, code, self.frames[ci]["llrs"][f], mode)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                res = None
            results.append(res)
        for (ci, mode, f), res in zip(self.decode_order, results):
            self._op(totals, lambda: res is not None and self.decode_ok(ci, mode, f, res))

    def sim_config(self, full):
        return self.mk.SimConfig(
            self.fx.sim_code, SIM_SNRS,
            max_frames=SIM_FULL_MAX_FRAMES if full else SIM_SHORT_MAX_FRAMES,
            target_frame_errors=SIM_TARGET, seed=self.seed,
        )

    def simulate_op(self, totals, full):
        segment = totals.segment("simulate")

        def action():
            cfg = self.sim_config(full)
            result = totals.timed(segment, None, lambda r: sum(p.frames for p in r.points),
                                  self.mk.simulation.simulate, cfg)
            totals.sim_frames += sum(p.frames for p in result.points)
            return self.simulate_ok(result, full)

        self._op(totals, action)

    def construct_op(self, totals, segment, seed):
        def action():
            frozen = totals.timed(
                segment, None, lambda _: CONSTRUCT_FRAMES, self.mk.codes.construct_frozen_mc,
                CONSTRUCT_BASES, CONSTRUCT_K, CONSTRUCT_SNR_DB, CONSTRUCT_FRAMES, seed,
            )
            return self.construct_ok(frozen, CONSTRUCT_FRAMES)

        self._op(totals, action)

    def run_round(self, workload, totals):
        for segment in ROUNDS[workload]:
            if segment == "decode":
                self.decode_pass(totals)
            elif segment.startswith("simulate"):
                self.simulate_op(totals, segment == "simulate-full")
            elif segment == "construct":
                timed = totals.segment("construct")
                for c in range(CONSTRUCT_CALLS):
                    self.construct_op(totals, timed, self.seed + c * CONSTRUCT_FRAMES)
            else:
                self.construct_op(totals, totals.segment("construct"), self.seed)

    # ---- single-shot measurements ---------------------------------------

    def decode_peak_kib(self):
        ci = len(self.fx.paper) - 1
        llr = self.frames[ci]["llrs"][0]
        # The same decode once before, so that the free lists of Python and
        # numpy are in the state this decode leaves, not whatever came before.
        self.mk.decoder.decode(self.fx.paper[ci], llr, "exact")
        tracemalloc.start()
        try:
            self.mk.decoder.decode(self.fx.paper[ci], llr, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1024.0

    def decoder_counts(self):
        """Per paper code: refreshes, propagations, allocated bytes."""
        out = {}
        for ci, code in enumerate(self.fx.paper):
            st = self.mk.decoder.decode(code, self.frames[ci]["llrs"][0], "exact").stats
            mem = self.mk.memory.allocate(code)
            nbytes = 0
            for value in vars(mem).values():
                for arr in value if isinstance(value, list) else [value]:
                    nbytes += getattr(arr, "nbytes", 0)
            out[code.N] = (int(st.llr_updates.sum()), int(st.ps_propagations.sum()), nbytes)
        return out

    def build_ms(self, repeats=20):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            build_codes(self.mk, self.fx.frozen_sets)
            times.append((perf_counter() - start) * 1e3)
        return statistics.median(times)


def run_rounds(bench, workload, seconds=None, rounds=None, cal_every=CAL_EVERY_S):
    """Whole rounds until `seconds` have passed, or exactly `rounds`."""
    totals = Totals(cal_every)
    done = 0
    start = perf_counter()
    totals.clock.start()
    try:
        while (rounds is None and perf_counter() - start < seconds) or (rounds is not None and done < rounds):
            bench.run_round(workload, totals)
            done += 1
    finally:
        totals.clock.stop()
    return totals, done, perf_counter() - start


def end_to_end(totals, setup_s, peak_kib):
    """The end-to-end metrics, and the unscaled rates behind them."""
    metrics = {
        "setup_s": setup_s,
        "decode_bits_per_s": totals.rate("decode"),
        "decode_peak_kib": peak_kib,
        "sim_frames_per_s": totals.rate("simulate"),
        "construct_frames_per_s": totals.rate("construct"),
    }
    unscaled = {}
    for kind in KINDS:
        segments = [s for s in totals.segments if s.kind == kind]
        unscaled[kind] = sum(s.work() for s in segments) / sum(s.seconds() for s in segments)
    return metrics, unscaled


def decode_us_per_bit(totals):
    """Per (N, mode): decode time per coded bit, as measured."""
    parts = {}
    for s in totals.segments:
        for key, (work, seconds) in s.parts.items() if s.kind == "decode" else ():
            acc = parts.setdefault(key, [0, 0.0])
            acc[0] += work
            acc[1] += seconds
    return {key: seconds / work * 1e6 for key, (work, seconds) in parts.items()}


def traced_pass(bench, workload, rounds):
    """Repeat `rounds` rounds with spans around the package's functions."""
    mk = bench.mk
    tracer = Tracer()

    def size(args, kwargs):
        return args[0].N

    def kernel(args, kwargs):
        mode = args[4] if len(args) > 4 else kwargs.get("mode", "exact")
        return len(args[2]) * 4 + (args[0].p == 3) * 2 + (mode == "minsum")

    targets = [
        (mk.simulation, "simulate", "simulation.simulate", None),
        (mk.codes, "construct_frozen_mc", "codes.construct_frozen_mc", None),
        (mk.simulation, "encode", "codes.encode", None),
        (mk.simulation, "decode", "decoder.decode", size),
        (mk.simulation, "awgn_llrs", "simulation.awgn_llrs", None),
        (mk.decoder, "decode", "decoder.decode", size),
        (mk.decoder, "genie_error_counts", "decoder.genie_error_counts", size),
        (mk.decoder, "allocate", "memory.allocate", None),
        (mk.decoder, "llr_phase", "decoder.llr_phase", None),
        (mk.decoder, "estimate_bit", "decoder.estimate_bit", None),
        (mk.decoder, "ps_phase", "decoder.ps_phase", None),
        (mk.decoder, "llr_kernel_batch", "kernels.llr_kernel_batch", kernel),
    ]
    for module, attr, name, attr_of in targets:
        if hasattr(module, attr):  # a layer the package no longer has reads 0
            tracer.wrap(module, attr, name, attr_of)
    try:
        # No host-speed samples here: they would land inside the spans.
        totals, _, wall = run_rounds(bench, workload, rounds=rounds, cal_every=float("inf"))
    finally:
        tracer.restore()
    return totals, wall, tracer.arrays()


def layer_metrics(spans, totals):
    duration, own = self_times(spans)
    names = list(spans["names"])
    attr = spans["attr"]

    def pick(name):
        return spans["name_id"] == names.index(name) if name in names else np.zeros(len(own), bool)

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def mean_us(values):
        return ratio(values.sum() * 1e6, len(values))

    dec, genie = pick("decoder.decode"), pick("decoder.genie_error_counts")
    bits_dec, bits_genie = attr[dec].sum(), attr[genie].sum()
    sc_frames = dec.sum() + genie.sum()
    kern = pick("kernels.llr_kernel_batch")
    out = {
        "decoder.decode.self_us_per_bit": ratio(own[dec].sum() * 1e6, bits_dec),
        "decoder.llr_phase.self_us_per_bit": ratio(own[pick("decoder.llr_phase")].sum() * 1e6, bits_dec + bits_genie),
        "decoder.ps_phase.self_us_per_bit": ratio(own[pick("decoder.ps_phase")].sum() * 1e6, bits_dec + bits_genie),
        "decoder.estimate_bit.self_us_per_bit": ratio(own[pick("decoder.estimate_bit")].sum() * 1e6, bits_dec),
        "decoder.genie_error_counts.us_per_bit": ratio(duration[genie].sum() * 1e6, bits_genie),
        "kernels.llr_kernel_batch.calls_per_frame": ratio(kern.sum(), sc_frames),
        "kernels.llr_kernel_batch.rows_per_call": ratio((attr[kern] // 4).sum(), kern.sum()),
        "codes.encode.us_per_frame": mean_us(duration[pick("codes.encode")]),
        "codes.encode.calls": ratio(pick("codes.encode").sum(), totals.sim_frames),
        "memory.allocate.us_per_call": mean_us(duration[pick("memory.allocate")]),
        "memory.allocate.calls": ratio(pick("memory.allocate").sum(), sc_frames),
        "simulation.awgn_llrs.us_per_call": mean_us(duration[pick("simulation.awgn_llrs")]),
        "simulation.simulate.self_us_per_frame": ratio(own[pick("simulation.simulate")].sum() * 1e6, totals.sim_frames),
        "simulation.simulate.frames": totals.sim_frames,
    }
    for p in (2, 3):
        for mi, mode in enumerate(MODES):
            sel = kern & ((attr & 3) == (p == 3) * 2 + mi)
            out[f"kernels.llr_kernel_batch.us_per_call.p{p}.{mode}"] = mean_us(own[sel])
    summary = {}
    for i, name in enumerate(names):
        sel = spans["name_id"] == i
        summary[name] = {"calls": int(sel.sum()), "total_s": float(duration[sel].sum()), "self_s": float(own[sel].sum())}
    return out, summary
