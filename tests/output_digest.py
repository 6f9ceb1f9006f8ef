"""A digest of the package's outputs, to show that two source trees behave the same.

Runs a fixed matrix through the public API alone (decode_batch, simulate,
construct_frozen_mc, encode and, for meminfo, mkpolar.cli.run), so that it
runs unchanged on any tree that has them, and prints the SHA-256 of each
group's outputs as JSON. A group is one code, whose cases are:

- decode_batch of F = 1, 7 and BATCH_LLR_ENTRIES // N frames, with no
  frozen bit, all frozen, a random half, REP frozen sets
  (test_decoder.rep_frozen_sets) and, for the paper codes, the frozen set
  of the benchmark's decode-paper workload; on Gaussian, tie-prone
  ({0, +-0.7, +-1.3, +-2.9, +-40}) and extreme ({+-1e300, +-1e-300, +-0,
  +-5e-324, +-1e10}) LLRs; in both modes. A case hashes the decisions,
  the decision LLRs and the stage refresh counts;
- encode of random messages under each of those frozen sets;
- for some codes, construct_frozen_mc: the pinned constructions of
  tests/test_codes.py and tests/test_decoder.py.

The codes are every ordering of 2 and 3 up to N = 72, the paper codes,
and codes with tests/test_decoder.py's OTHER and K4 and with a size-5
kernel. More groups hold simulate runs in both modes, each hashed as its
CSV and each point's frames, decoded_frames, batches and
generator_frames: "simulate" of three paper codes with their
decode-paper frozen sets, "simulate sweep" of sweeps of five and six
points with those sets, "simulate rep" of the REP frozen sets and
"simulate half" of a random half frozen, over every ordering of 2 and 3
up to N = 72; and a last one meminfo's stdout. --cases PATH writes the hash of every
case as JSON, to find where two trees differ. Run from the repository
root:

    PYTHONPATH=src python tests/output_digest.py [--cases PATH]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from mkpolar import CodeSpec, KernelMatrix, SimConfig, construct_frozen_mc, decode_batch, encode, simulate  # noqa: E402
from mkpolar.cli import run  # noqa: E402
from mkpolar.decoder import BATCH_LLR_ENTRIES  # noqa: E402
from reference_sc import all_kernel_sequences  # noqa: E402
from test_decoder import K4, OTHER, PAPER_CODES, PAPER_FROZEN, rep_frozen_sets  # noqa: E402

L5 = KernelMatrix(np.tril(np.ones((5, 5), dtype=np.uint8)))
CODES = [*all_kernel_sequences(72), *PAPER_CODES, (2, 2, OTHER), (OTHER,), (3, K4), (K4, K4), (K4, 3, K4), (2, L5),
         (L5, 3)]
TIES = np.array([0.0, 0.7, -0.7, 1.3, -1.3, 2.9, -2.9, 40.0, -40.0])
EXTREMES = np.array([1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 5e-324, -5e-324, 1e10, -1e10])
CONSTRUCTIONS = {(2, 2, 3): [(6, 1.0, 1000, 0)], (2, 2, 2, 3, 3): [(36, 1.0, 2000, 0)],
                 (2, 2, 2, 2, 3, 3): [(72, 1.0, 1000, 0), (72, 1.0, 40, 0)], (3, K4): [(6, 1.0, 7, 2)]}
SIMULATED = ((2, 2, 3), (2, 2, 2, 3, 3), (2, 2, 2, 2, 3, 3))
# the simulate runs of each frozen set of "simulate rep" and "simulate half"
SWEEP = {"snr_points_db": (1.0, 3.0), "max_frames": 2000, "target_frame_errors": 30, "seed": 3}
# sweeps whose points stop in different rounds, and at N = 144, whose first round of five batches
# of 100 frames is more than the BATCH_LLR_ENTRIES // N = 455 that one decoder call takes
SWEEPS = (((2, 2, 3), (-1.0, 0.0, 1.0, 2.0, 3.0, 4.0)), ((2, 2, 2, 2, 3, 3), (-2.0, -1.0, 0.0, 1.0, 2.0)))
MEMINFO = (["meminfo", "--paper-table"], ["meminfo", "--kernels", "2,3,2", "--kernels", "3,3", "--q", "4"])


def name(bases):
    """bases as text, a kernel of size 4 or more by its rows."""
    return ",".join(str(b) if isinstance(b, int) else "[" + "".join(map(str, b.rows.ravel())) + "]" for b in bases)


def sha(*arrays):
    digest = hashlib.sha256()
    for x in arrays:
        digest.update(np.ascontiguousarray(x).tobytes() if isinstance(x, np.ndarray) else repr(x).encode())
    return digest.hexdigest()


def simulated(config):
    """The hash of a simulate run's CSV and of each point's frames, decoded frames, batches and
    generator frames."""
    result = simulate(config)
    return sha(result.to_csv(), [(p.frames, p.decoded_frames, p.batches, p.generator_frames) for p in result.points])


def code_cases(bases, rng):
    """(case, hash) of every decode, encode and construction of one code."""
    n = CodeSpec(bases).N
    sets = [(), range(n), rng.choice(n, n // 2, replace=False).tolist(), *rep_frozen_sets(bases, rng)]
    if bases in PAPER_FROZEN:
        sets.append(PAPER_FROZEN[bases])
    for index, frozen in enumerate(sets):
        code = CodeSpec(bases, frozen)
        u = np.zeros((7, n), np.uint8)
        u[:, list(code.info)] = rng.integers(0, 2, (7, code.K))
        yield f"encode set{index}", sha(encode(code, u))
        for frames in (1, 7, BATCH_LLR_ENTRIES // n):
            kinds = (("gaussian", rng.normal(0.0, 2.0, (frames, n))), ("ties", rng.choice(TIES, (frames, n))),
                     ("extremes", rng.choice(EXTREMES, (frames, n))))
            for kind, llrs in kinds:
                for mode in ("exact", "minsum"):
                    result = decode_batch(code, llrs, mode)
                    yield (f"decode set{index} F{frames} {kind} {mode}",
                           sha(result.u_hat, result.final_llrs, result.stats.llr_updates))
    for args in CONSTRUCTIONS.get(bases, ()):
        yield f"construct {args}", sha(construct_frozen_mc(bases, *args))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=Path, help="write the hash of every case as JSON here")
    args = parser.parse_args()
    rng = np.random.default_rng(2036)
    cases, groups = {}, {}
    for bases in CODES:
        group = groups[name(bases)] = hashlib.sha256()
        for case, digest in code_cases(bases, rng):
            cases[f"{name(bases)} {case}"] = digest
            group.update(digest.encode())
    groups["simulate"] = hashlib.sha256()
    for bases in SIMULATED:
        for mode in ("exact", "minsum"):
            config = SimConfig(CodeSpec(bases, PAPER_FROZEN[bases]), (0.0, 2.0), max_frames=3000,
                               target_frame_errors=50, seed=1, mode=mode)
            digest = cases[f"simulate {name(bases)} {mode}"] = simulated(config)
            groups["simulate"].update(digest.encode())
    groups["simulate sweep"] = hashlib.sha256()
    for bases, snrs in SWEEPS:
        for mode in ("exact", "minsum"):
            config = SimConfig(CodeSpec(bases, PAPER_FROZEN[bases]), snrs, max_frames=20000, target_frame_errors=100,
                               seed=5, mode=mode)
            digest = cases[f"simulate sweep {name(bases)} {snrs} {mode}"] = simulated(config)
            groups["simulate sweep"].update(digest.encode())
    sweep = np.random.default_rng(2037)
    groups["simulate rep"], groups["simulate half"] = hashlib.sha256(), hashlib.sha256()
    for bases in all_kernel_sequences(72):
        n = CodeSpec(bases).N
        sets = [("rep", frozen) for frozen in rep_frozen_sets(bases, sweep)]
        for group, frozen in sets + [("half", sweep.choice(n, n // 2, replace=False).tolist())]:
            for mode in ("exact", "minsum"):
                config = SimConfig(CodeSpec(bases, frozen), mode=mode, **SWEEP)
                digest = simulated(config)
                cases[f"simulate {group} {name(bases)} {sorted(frozen)} {mode}"] = digest
                groups[f"simulate {group}"].update(digest.encode())
    groups["meminfo"] = hashlib.sha256()
    for argv in MEMINFO:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run(argv)
        digest = cases[" ".join(argv)] = sha(status, out.getvalue())
        groups["meminfo"].update(digest.encode())
    if args.cases:
        args.cases.write_text(json.dumps(cases, indent=0))
    print(json.dumps({"cases": len(cases), "groups": {k: v.hexdigest() for k, v in groups.items()}}, indent=1))


if __name__ == "__main__":
    main()
