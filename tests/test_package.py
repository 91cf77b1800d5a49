"""The package's public namespace."""

import coinrace


def test_every_public_name_resolves():
    assert [name for name in coinrace.__all__ if not hasattr(coinrace, name)] == []
    assert len(set(coinrace.__all__)) == len(coinrace.__all__)
    namespace: dict = {}
    exec("from coinrace import *", namespace)
    assert set(coinrace.__all__) <= namespace.keys()
