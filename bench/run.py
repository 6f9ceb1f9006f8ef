"""Benchmark of the mkpolar package: decoding, FER simulation, construction.

Usage, from the repository root:

    python3 bench/run.py --workload decode-paper --seed 1 --seconds 20 --trace 0

Every workload repeats whole rounds of the same operations until
``--seconds`` have passed. A round holds one main segment, which gives
the workload its name, plus short companion segments, so that every run
reports every end-to-end metric (see bench/README.md). Outputs are
checked outside the timed regions against the independent reference in
bench/reference.py or against properties the method must have; an
operation whose check fails, or that raises, counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats the
same rounds with spans recorded around the package's public functions
and reports the per-layer metrics. The last line of standard output is
one JSON object; a copy of it, with machine details, and the spans of a
traced run are written under bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# numpy links a multi-threaded BLAS; pin it before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9


def setup_probe():
    """Time import, code building and warm-up in this fresh process."""
    start = perf_counter()
    import harness
    import numpy as np

    harness.Fixture(harness.import_package()).warm_up()
    elapsed = perf_counter() - start
    clock = harness.HostClock(harness.CAL_EVERY_S)
    samples = []
    for _ in range(30):
        clock.sample(samples)
    print(elapsed * harness.CAL_REFERENCE_S / float(np.quantile(samples, harness.SETUP_QUANTILE)))


def measure_setup():
    """Median set-up time over SETUP_PROBES fresh processes, each scaled
    to the reference host speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=BENCH_DIR.parent,
        )
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import harness
    import numpy as np

    mk = harness.import_package()
    setup_s = None if args.trace else measure_setup()
    fixture = harness.Fixture(mk)
    fixture.warm_up()
    bench = harness.Bench(mk, fixture, args.seed)
    peak_kib = None if args.trace else bench.decode_peak_kib()
    bench.prepare()
    machine = harness.machine_info()

    # A traced run never uses the host speed, and its traced rounds take no
    # samples, so its untraced rounds take none either.
    cal_every = float("inf") if args.trace else harness.CAL_EVERY_S
    totals, rounds, wall = harness.run_rounds(bench, args.workload, seconds=args.seconds,
                                              cal_every=cal_every)
    attempted, failed = totals.attempted, totals.failed
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "machine": machine}
    record["segments"] = [
        {"kind": s.kind, "work": s.work(), "seconds": s.seconds(),
         "chunk_mean_s": float(np.mean(s.samples)) if s.samples else None, "chunks": len(s.samples)}
        for s in totals.segments
    ]
    if args.trace:
        traced, traced_wall, spans = harness.traced_pass(bench, args.workload, rounds)
        attempted += traced.attempted
        failed += traced.failed
        metrics, record["self_times"] = harness.layer_metrics(spans, traced)
        for (n, mode), us in harness.decode_us_per_bit(totals).items():
            metrics[f"decoder.decode.us_per_bit.N{n}.{mode}"] = us
        for n, (refreshes, propagations, nbytes) in bench.decoder_counts().items():
            metrics[f"decoder.stage_refreshes.N{n}"] = refreshes
            metrics[f"decoder.ps_propagations.N{n}"] = propagations
            metrics[f"memory.decoder_bytes.N{n}"] = nbytes
        metrics["codes.CodeSpec.build_ms"] = bench.build_ms()
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {m["name"]: m["unit"] for m in PER_LAYER}
    else:
        metrics, record["unscaled"] = harness.end_to_end(totals, setup_s, peak_kib)
        units = {m["name"]: m["unit"] for m in END_TO_END}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from bench/spec.py: {sorted(set(metrics) ^ set(units))}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        np.savez_compressed(OUT_DIR / f"{stem}.spans.npz", **spans)

    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {args.workload} seed {args.seed} rounds {rounds}: "
          f"attempted {attempted} failed {failed}")
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
