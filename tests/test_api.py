import fracmix


def test_every_export_resolves():
    # a stale name in __all__ breaks `from fracmix import *`
    missing = [name for name in fracmix.__all__ if not hasattr(fracmix, name)]
    assert missing == []
    assert len(set(fracmix.__all__)) == len(fracmix.__all__)
