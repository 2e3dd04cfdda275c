"""The package's public names: every entry of ``__all__`` must resolve, once."""

import gridperc


def test_all_names_resolve_without_duplicates():
    names = gridperc.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gridperc, name), name
