"""The package namespace."""

import tskfuzzy


def test_every_exported_name_exists():
    """A name left in __all__ after its definition is removed would break
    `from tskfuzzy import *`."""
    missing = [name for name in tskfuzzy.__all__ if not hasattr(tskfuzzy, name)]
    assert missing == []
    assert len(set(tskfuzzy.__all__)) == len(tskfuzzy.__all__)
