import lagrangas as lg


def test_every_exported_name_resolves():
    missing = [name for name in lg.__all__ if not hasattr(lg, name)]
    assert missing == []
