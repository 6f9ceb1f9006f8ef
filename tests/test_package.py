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
