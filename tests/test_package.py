"""The package's export list."""

import qnl


def test_every_exported_name_resolves_once():
    missing = [name for name in qnl.__all__ if not hasattr(qnl, name)]
    assert missing == []
    assert len(set(qnl.__all__)) == len(qnl.__all__)
