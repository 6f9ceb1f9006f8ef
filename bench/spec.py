"""Workloads and metrics of the benchmark, and the BENCHMARK.json they make.

Run ``python3 bench/spec.py`` from the repository root to rewrite
BENCHMARK.json from the tables below.
"""

import json
from pathlib import Path

PAPER_CODES = (
    (2, 2, 3),
    (2, 2, 2, 3, 3),
    (2, 2, 2, 2, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 3),
    (2, 2, 3, 3, 3, 3, 3),
)
PAPER_N = (12, 72, 144, 384, 972)
MODES = ("exact", "minsum")

RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "decode-paper",
        "why": "single-frame decode of the five paper codes, both modes, equal coded bits each: "
        "timed region is decoder, kernels and memory only, from small-N overhead to wide vectors",
    },
    {
        "name": "simulate-fer",
        "why": "the whole Monte-Carlo loop at N = 12 to 100 frame errors at 0 and 4 dB, "
        "where encode, RNG set-up and the AWGN channel take a large share of each frame",
    },
    {
        "name": "construct-mc",
        "why": "Monte-Carlo construction at N = 144: the genie-aided SC path, which never "
        "encodes, so a decode speed-up that slows or breaks it shows here",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "decode_bits_per_s", "unit": "bits/s", "better": "higher", "bound": 0.25},
    {"name": "decode_peak_kib", "unit": "KiB", "better": "lower", "bound": 0.05},
    {"name": "sim_frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25},
    {"name": "construct_frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25},
]


def _per_layer():
    out = []

    def add(name, unit, better):
        out.append({"name": name, "unit": unit, "better": better})

    for n in PAPER_N:
        for mode in MODES:
            add(f"decoder.decode.us_per_bit.N{n}.{mode}", "us/bit", "lower")
    for layer in ("decode", "llr_phase", "ps_phase", "estimate_bit"):
        add(f"decoder.{layer}.self_us_per_bit", "us/bit", "lower")
    add("decoder.genie_error_counts.us_per_bit", "us/bit", "lower")
    for n in PAPER_N:
        add(f"decoder.stage_refreshes.N{n}", "count/frame", "lower")
    for n in PAPER_N:
        add(f"decoder.ps_propagations.N{n}", "count/frame", "lower")
    for p in (2, 3):
        for mode in MODES:
            add(f"kernels.llr_kernel_batch.us_per_call.p{p}.{mode}", "us/call", "lower")
    add("kernels.llr_kernel_batch.calls_per_frame", "calls/frame", "lower")
    add("kernels.llr_kernel_batch.rows_per_call", "rows/call", "higher")
    add("codes.encode.us_per_frame", "us/frame", "lower")
    add("codes.encode.calls", "calls/frame", "lower")
    add("codes.CodeSpec.build_ms", "ms", "lower")
    add("memory.allocate.us_per_call", "us/call", "lower")
    add("memory.allocate.calls", "calls/frame", "lower")
    for n in PAPER_N:
        add(f"memory.decoder_bytes.N{n}", "B", "lower")
    add("simulation.awgn_llrs.us_per_call", "us/call", "lower")
    add("simulation.simulate.self_us_per_frame", "us/frame", "lower")
    add("simulation.simulate.frames", "frames", "higher")
    add("trace.overhead_s", "s", "lower")
    return out


PER_LAYER = _per_layer()


def benchmark_json():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")
