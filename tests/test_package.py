"""The package's public surface."""

import inspect

import mkpolar


def test_all_lists_exactly_the_public_names():
    assert len(set(mkpolar.__all__)) == len(mkpolar.__all__)
    for name in mkpolar.__all__:
        assert hasattr(mkpolar, name), name
    public = {
        name
        for name, value in vars(mkpolar).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(mkpolar.__all__)


PUBLIC_NAMES = {
    "LLR_MAX", "KernelMatrix", "builtin_kernel", "llr_kernel_batch",
    "CodeSpec", "encode", "channel_permutation", "construct_frozen_mc",
    "format_code_file", "parse_code_file", "save_code", "load_code",
    "allocate", "memory_report", "llr_element_count", "ps_element_count",
    "naive_counts", "decode", "decode_batch",
    "CSV_HEADER", "SimConfig", "awgn_llrs", "simulate",
    "CodingError", "NotSquare", "SingularKernel", "UnsupportedKernelSize",
    "LengthMismatch", "IndexOutOfRange", "FrozenViolation", "InvalidK",
    "InvalidRate", "NonFiniteInput", "CodeFileError",
}


def test_all_is_pinned():
    # A new re-export is a change to the public surface: add it here too.
    assert set(mkpolar.__all__) == PUBLIC_NAMES
