"""Regenerate bench/frozen_sets.json, the frozen sets of decode-paper.

Each paper code gets K = N/2. Its frozen set holds the N/2 bit positions
with the highest genie-aided SC error rate over FRAMES all-zero frames
at DESIGN_SNR_DB, equal rates going to the lower index, estimated by the
benchmark's own reference decoder (a decision LLR of 0 counts as half
an error), so the sets do not move when the package's
construction changes. Run from the repository root:

    python3 bench/make_frozen.py
"""

import json
import os
from math import prod
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import reference  # noqa: E402
from spec import PAPER_CODES  # noqa: E402

DESIGN_SNR_DB = 2.0
FRAMES = 4000
CHUNK = 500
SEED = 2024

PATH = Path(__file__).resolve().parent / "frozen_sets.json"


def frozen_set(bases):
    n = prod(bases)
    rng = np.random.default_rng([SEED, n])
    errors = np.zeros(n)
    zeros = np.zeros((CHUNK, n), dtype=np.uint8)
    for _ in range(FRAMES // CHUNK):
        llrs = reference.channel_llrs(zeros, DESIGN_SNR_DB, 0.5, rng)
        errors += reference.genie_error_rates(bases, llrs)
    order = np.argsort(-errors, kind="stable")
    return sorted(int(i) for i in order[: n // 2])


def main():
    sets = {",".join(map(str, b)): frozen_set(b) for b in PAPER_CODES}
    PATH.write_text(json.dumps(sets) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
