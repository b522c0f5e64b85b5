"""The package's public surface: ``cellassoc.__all__`` lists exactly what it exports."""

import types
from collections import Counter

import cellassoc


def test_all_names_every_public_export_once():
    repeated = [name for name, count in Counter(cellassoc.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in cellassoc.__all__ if not hasattr(cellassoc, name)]
    assert missing == []  # e.g. a removed type still listed
    public = {
        name
        for name, value in vars(cellassoc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cellassoc.__all__) == public
