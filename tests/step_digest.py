"""A digest of the SC programs' bound step lists, call for call.

Runs every code of a fixed list, at each of its frame counts and in both
mode orders, on a fresh program of its own, and after every run takes
the step list of its mode: each step's function, and each operand, an
array as (its base array, byte offset, shape, strides, dtype), with base
arrays numbered in order of first use within the program. It prints the
SHA-256 of those lists, and of each program's nbytes and charge after
every run. Two source trees that print the same digests bind the same
calls on the same memory. It builds a program as _Program(code, frames)
and runs it as run(code, llrs, mode), and touches nothing else of it.

steps_each_sha256 digests each list on its own, its base arrays numbered
afresh, so two trees that lay out the same arrays differently across a
program's lists still print the same one. --lists PATH writes per list
its scenario, F, code index, mode order, mode, hash, nbytes and charge as
JSON, to be diffed against another tree's. Run from the repository root:

    PYTHONPATH=src python tests/step_digest.py [--lists PATH]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from mkpolar import CodeSpec  # noqa: E402
from mkpolar.decoder import BATCH_LLR_ENTRIES, _Program  # noqa: E402
from reference_sc import all_kernel_sequences  # noqa: E402
from test_decoder import K4, OTHER, PAPER_CODES, PAPER_FROZEN, rep_frozen_sets  # noqa: E402

MODE_ORDERS = (("exact", "minsum"), ("minsum", "exact"))


def canonical(x, bases):
    """x with every array named by its base array's number in bases."""
    if isinstance(x, np.ndarray):
        base = x
        while base.base is not None:
            base = base.base
        number = bases.setdefault(id(base), (len(bases), base))[0]  # holding base keeps its id unique
        offset = x.__array_interface__["data"][0] - base.__array_interface__["data"][0]
        return "array", number, offset, x.shape, x.strides, x.dtype.str
    if isinstance(x, (tuple, list)):
        return tuple(canonical(y, bases) for y in x)
    if isinstance(x, np.ufunc):
        return "ufunc", x.__name__
    owner = getattr(x, "__self__", None)
    if isinstance(owner, (np.ndarray, np.ufunc)):
        return "method", x.__name__, canonical(owner, bases)
    if callable(x):
        return "function", getattr(x, "__module__", None), x.__name__
    return "value", repr(x)


def scenarios():
    """(kernels, frame counts, codes) of every kernel sequence."""
    rng = np.random.default_rng(2027)
    codes = [*all_kernel_sequences(72), *PAPER_CODES, (2, 2, OTHER), (OTHER,), (3, K4), (K4, K4), (K4, 3, K4)]
    for bases in codes:
        n = CodeSpec(bases).N
        frames = (1, 7, 40, BATCH_LLR_ENTRIES // n) if bases in PAPER_FROZEN else (1, 7, BATCH_LLR_ENTRIES // n)
        sets = [(), range(n), rng.choice(n, n // 2, replace=False).tolist(), *rep_frozen_sets(bases, rng)]
        if bases in PAPER_FROZEN:
            sets.append(PAPER_FROZEN[bases])
        yield bases, frames, [CodeSpec(bases, frozen) for frozen in sets]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lists", type=Path, help="write each step list's hash and memory as JSON here")
    args = parser.parse_args()
    steps, each, memory, lists = hashlib.sha256(), hashlib.sha256(), hashlib.sha256(), []
    for bases, frame_counts, codes in scenarios():
        for frames in frame_counts:
            for index, code in enumerate(codes):
                llrs = np.zeros((frames, code.N))
                for modes in MODE_ORDERS:
                    program, numbers = _Program(code, frames), {}
                    for mode in modes:
                        program.run(code, llrs, mode)
                        steps.update(repr(canonical(program.steps(mode), numbers)).encode())
                        digest = hashlib.sha256(repr(canonical(program.steps(mode), {})).encode()).hexdigest()
                        each.update(digest.encode())
                        memory.update(repr((program.nbytes, program.charge)).encode())
                        lists.append({"scenario": repr(bases), "frames": frames, "code": index, "modes": modes,
                                      "mode": mode, "sha256": digest, "nbytes": program.nbytes,
                                      "charge": program.charge})
    if args.lists:
        args.lists.write_text(json.dumps(lists, indent=0))
    print(json.dumps({"step_lists": len(lists), "steps_sha256": steps.hexdigest(),
                      "steps_each_sha256": each.hexdigest(), "memory_sha256": memory.hexdigest()}))


if __name__ == "__main__":
    main()
