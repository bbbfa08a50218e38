import importlib

import pytest


@pytest.mark.parametrize("module", ["linbreg", "linbreg.problems"])
def test_every_exported_name_resolves(module):
    # a stale __all__ entry makes ``from module import *`` raise
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
