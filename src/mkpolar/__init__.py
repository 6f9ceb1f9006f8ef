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
    UnsupportedKernelSize,
)
from .kernels import (
    LLR_MAX,
    KernelMatrix,
    builtin_kernel,
    llr_kernel_batch,
)
from .codes import (
    CodeSpec,
    channel_permutation,
    construct_frozen_mc,
    encode,
    format_code_file,
    load_code,
    parse_code_file,
    save_code,
)
from .memory import (
    allocate,
    llr_element_count,
    memory_report,
    naive_counts,
    ps_element_count,
)
from .decoder import (
    decode,
    decode_batch,
)
from .simulation import (
    CSV_HEADER,
    SimConfig,
    awgn_llrs,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "LLR_MAX",
    "KernelMatrix",
    "builtin_kernel",
    "llr_kernel_batch",
    "CodeSpec",
    "encode",
    "channel_permutation",
    "construct_frozen_mc",
    "format_code_file",
    "parse_code_file",
    "save_code",
    "load_code",
    "allocate",
    "memory_report",
    "llr_element_count",
    "ps_element_count",
    "naive_counts",
    "decode",
    "decode_batch",
    "CSV_HEADER",
    "SimConfig",
    "awgn_llrs",
    "simulate",
    "CodingError",
    "NotSquare",
    "SingularKernel",
    "UnsupportedKernelSize",
    "LengthMismatch",
    "IndexOutOfRange",
    "FrozenViolation",
    "InvalidK",
    "InvalidRate",
    "NonFiniteInput",
    "CodeFileError",
]
