"""Multi-kernel polar codes with compact stage-indexed SC decoding.

The package covers the full pipeline: kernel validation and LLR update
rules, code definition (mixed-radix indexing, encoder, channel
permutation, Monte-Carlo construction), decoder memory with exact
element accounting, the SC decoder itself, an AWGN simulation harness
and a CLI front end.
"""

from .errors import (
    CodeFileError,
    CodingError,
    FrozenViolation,
    IndexOutOfRange,
    InvalidK,
    InvalidRate,
    LengthMismatch,
    NonFiniteInput,
    NotSquare,
    SingularKernel,
    TooLarge,
    UnsupportedKernelSize,
)
from .kernels import (
    LLR_MAX,
    KernelMatrix,
    builtin_kernel,
    llr_kernel_batch,
    llr_kernel_exact,
    llr_kernel_minsum,
    ps_map,
    validate_kernel,
)
from .codes import (
    CodeSpec,
    channel_permutation,
    construct_frozen_mc,
    digits_to_index,
    encode,
    format_code_file,
    load_code,
    mixed_radix_digits,
    parse_code_file,
    save_code,
    start_stage,
    trailing_max_run,
)
from .memory import (
    DecoderMemory,
    MemoryReport,
    allocate,
    llr_element_count,
    memory_report,
    naive_counts,
    ps_element_count,
)
from .decoder import (
    DecodeResult,
    DecodeStats,
    decode,
    decode_batch,
)
from .simulation import (
    CSV_HEADER,
    SimConfig,
    SimResult,
    SnrPointResult,
    awgn_llrs,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "LLR_MAX",
    "KernelMatrix",
    "builtin_kernel",
    "validate_kernel",
    "ps_map",
    "llr_kernel_exact",
    "llr_kernel_minsum",
    "llr_kernel_batch",
    "CodeSpec",
    "mixed_radix_digits",
    "digits_to_index",
    "start_stage",
    "trailing_max_run",
    "encode",
    "channel_permutation",
    "construct_frozen_mc",
    "format_code_file",
    "parse_code_file",
    "save_code",
    "load_code",
    "DecoderMemory",
    "MemoryReport",
    "allocate",
    "memory_report",
    "llr_element_count",
    "ps_element_count",
    "naive_counts",
    "DecodeResult",
    "DecodeStats",
    "decode",
    "decode_batch",
    "CSV_HEADER",
    "SimConfig",
    "SimResult",
    "SnrPointResult",
    "awgn_llrs",
    "simulate",
    "CodingError",
    "NotSquare",
    "SingularKernel",
    "UnsupportedKernelSize",
    "LengthMismatch",
    "IndexOutOfRange",
    "FrozenViolation",
    "TooLarge",
    "InvalidK",
    "InvalidRate",
    "NonFiniteInput",
    "CodeFileError",
]
