"""Command-line front end.

Subcommands: meminfo, construct, encode, decode, simulate, digits.
All output is plain text or CSV on stdout; errors go to stderr, as does
simulate's line per SNR point (frames, decoded_frames, batches, elapsed_s
and its draw_s, encode_s and decode_s, generator_frames, frames_per_s and
the 95% Wilson interval on FER). batches counts the point's batches, which
share decoder calls with the other open points, and the times are the
point's shares of them (simulation.simulate). Exit codes: 0 success, 1
malformed arguments, 2 file or parse errors, 3 internal invariant violation.
Every subcommand is deterministic given its arguments, including seeds.
"""

import argparse
import math
import sys

from .codes import (
    CodeSpec,
    construct_frozen_mc,
    encode,
    format_code_file,
    load_code,
    save_code,
)
from .decoder import decode
from .errors import CodingError, FrozenViolation, UnsupportedKernelSize
from .kernels import LLR_MAX, MODES, builtin_kernel
from .memory import memory_report
from .simulation import SimConfig, simulate

import numpy as np

# The five reference configurations of the published comparison table,
# binary kernels ordered before ternary ones.
TABLE_KERNELS = (
    (2, 2, 3),
    (2, 2, 2, 3, 3),
    (2, 2, 2, 2, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 3),
    (2, 2, 3, 3, 3, 3, 3),
)


# Most points a start:step:stop SNR spec may expand to.
MAX_SNR_POINTS = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _kernels_arg(text):
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"kernel list {text!r} is not comma-separated integers")
    for p in sizes:
        try:
            builtin_kernel(p)
        except UnsupportedKernelSize as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return sizes


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _snr_arg(text):
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            start, step, stop = (_finite_float(x) for x in parts)
            if step <= 0:
                raise ValueError
            span = (stop - start) / step + 1e-9
            if not 0 <= span < MAX_SNR_POINTS:  # also false for nan
                raise ValueError
            return tuple(round(start + k * step, 10) for k in range(int(span) + 1))
        return tuple(_finite_float(x) for x in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"SNR spec {text!r} is not start:step:stop (at most {MAX_SNR_POINTS} points)"
            " or a comma-separated list of finite numbers"
        )


def _nonneg_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def _positive_int(text):
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _parse_bits(text, code):
    """Bit string (or 0x-prefixed hex) of length K (message) or N (full input)."""
    if text.startswith(("0x", "0X")):
        try:
            bits = "".join(f"{int(c, 16):04b}" for c in text[2:])
        except ValueError:
            raise _UsageError(f"invalid hex string {text!r}")
    else:
        bits = text
    if not bits or any(c not in "01" for c in bits):
        raise _UsageError(f"input {text!r} is not a bit string")
    values = np.array([int(c) for c in bits], dtype=np.uint8)
    if values.size == code.N:
        return values
    if values.size == code.K:
        u = np.zeros(code.N, dtype=np.uint8)
        u[np.asarray(code.info, dtype=np.int64)] = values
        return u
    raise _UsageError(
        f"input has {values.size} bits, expected K = {code.K} or N = {code.N}"
    )


def _load_llr_file(path, n):
    try:
        with open(path, "r", encoding="ascii") as fh:
            values = np.array([float(tok) for tok in fh.read().replace(",", " ").split()], dtype=np.float64)
    except ValueError as exc:  # also a byte that is not ASCII (UnicodeDecodeError)
        raise CodingError(f"LLR file {path}: {exc}") from None
    if values.size != n:
        raise CodingError(f"LLR file {path}: expected {n} values, got {values.size}")
    # only infinities saturate: decode takes finite LLRs as they are and refuses NaN
    return np.where(np.isinf(values), np.copysign(LLR_MAX, values), values)


def _cmd_meminfo(args):
    configs = list(args.kernels or [])
    if args.paper_table:
        configs.extend(TABLE_KERNELS)
    if not configs:
        raise _UsageError("meminfo needs --kernels or --paper-table")
    q = args.q
    lines = [f"N,s,kernels,llr_prop,llr_naive,ps_prop,ps_naive,total_bits_q{q}"]
    for sizes in configs:
        r = memory_report(sizes, q)
        name = "x".join(str(p) for p in r.kernel_sizes)
        lines.append(
            f"{r.N},{r.s},{name},{r.llr_elements},{r.llr_elements_naive},"
            f"{r.ps_elements},{r.ps_elements_naive},{r.total_bits}"
        )
    print("\n".join(lines))
    return 0


def _cmd_construct(args):
    n = math.prod(args.kernels)
    if args.k > n:
        raise _UsageError(f"--k {args.k} exceeds N = {n}")
    frozen = construct_frozen_mc(args.kernels, args.k, args.snr, args.frames, args.seed)
    code = CodeSpec(args.kernels, frozen)
    if args.out:
        save_code(code, args.out)
    else:
        print(format_code_file(code), end="")
    return 0


def _cmd_encode(args):
    code = load_code(args.code)
    u = _parse_bits(getattr(args, "in"), code)
    try:
        x = encode(code, u)
    except FrozenViolation as exc:
        raise _UsageError(str(exc)) from None
    print("".join(str(int(b)) for b in x))
    return 0


def _cmd_decode(args):
    code = load_code(args.code)
    llrs = _load_llr_file(args.llrs, code.N)
    result = decode(code, llrs, args.mode)
    info = np.asarray(code.info, dtype=np.int64)
    print("".join(str(int(b)) for b in result.u_hat[info]))
    print("i,u_hat,llr")
    for i in range(code.N):
        print(f"{i},{int(result.u_hat[i])},{result.final_llrs[i]}")
    return 0


def _wilson_interval(errors, frames, z=1.959963984540054):
    """Wilson score interval (Wilson, JASA 1927) on errors / frames; 95% at the default z."""
    p, z2 = errors / frames, z * z / frames
    centre = (p + z2 / 2) / (1 + z2)
    half = z * math.sqrt(p * (1 - p) / frames + z2 / (4 * frames)) / (1 + z2)
    return max(0.0, centre - half), min(1.0, centre + half)


def _cmd_simulate(args):
    code = load_code(args.code)
    config = SimConfig(
        code=code,
        snr_points_db=args.snr,
        max_frames=args.max_frames,
        target_frame_errors=args.target_errors,
        seed=args.seed,
        mode=args.mode,
        noiseless=args.noiseless,
    )
    result = simulate(config)
    print(result.to_csv(), end="")
    for p in result.points:
        low, high = _wilson_interval(p.frame_errors, p.frames)
        print(f"ebn0_db={p.ebn0_db} frames={p.frames} decoded_frames={p.decoded_frames} batches={p.batches} "
              f"elapsed_s={p.elapsed_s:.6f} draw_s={p.draw_s:.6f} encode_s={p.encode_s:.6f} decode_s={p.decode_s:.6f} "
              f"generator_frames={p.generator_frames} "
              f"frames_per_s={p.frames / max(p.elapsed_s, 1e-9):.1f} "
              f"fer_ci95={low:.6g},{high:.6g}", file=sys.stderr)
    return 0


def _cmd_digits(args):
    table = CodeSpec(args.kernels).digit_table
    lines = ["i," + ",".join(str(i) for i in range(len(table)))]
    for j, column in enumerate(table.T.tolist(), start=1):
        lines.append(f"b{j}," + ",".join(map(str, column)))
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mkpolar", description="Multi-kernel polar coding tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meminfo", help="decoder memory element counts as CSV")
    p.add_argument("--kernels", type=_kernels_arg, action="append",
                   help="comma-separated kernel sizes, repeatable")
    p.add_argument("--paper-table", action="store_true",
                   help="emit the five reference configurations (N=12..972)")
    p.add_argument("--q", type=_positive_int, default=6,
                   help="LLR quantization bits for the total (default 6)")
    p.set_defaults(func=_cmd_meminfo)

    p = sub.add_parser("construct", help="Monte-Carlo frozen-set construction")
    p.add_argument("--kernels", type=_kernels_arg, required=True)
    p.add_argument("--k", type=_nonneg_int, required=True, help="information length")
    p.add_argument("--snr", type=_finite_float, required=True, help="design Eb/N0 in dB")
    p.add_argument("--frames", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", help="write the code file here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="encode a message with a code file")
    p.add_argument("--code", required=True, help="code file path")
    p.add_argument("--in", required=True, metavar="HEXBITS",
                   help="message bits (length K) or full input (length N)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="SC-decode one frame of LLRs")
    p.add_argument("--code", required=True, help="code file path")
    p.add_argument("--llrs", required=True, help="file with N comma/whitespace separated LLRs")
    p.add_argument("--mode", choices=MODES, default="exact")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte-Carlo FER/BER sweep as CSV")
    p.add_argument("--code", required=True, help="code file path")
    p.add_argument("--snr", type=_snr_arg, required=True,
                   help="start:step:stop (inclusive) or comma-separated dB values")
    p.add_argument("--max-frames", type=_positive_int, default=10000)
    p.add_argument("--target-errors", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("digits", help="mixed-radix digit table of all indices")
    p.add_argument("--kernels", type=_kernels_arg, required=True)
    p.set_defaults(func=_cmd_digits)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
