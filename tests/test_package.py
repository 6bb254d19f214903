import edgesched


def test_every_exported_name_resolves():
    missing = [name for name in edgesched.__all__ if not hasattr(edgesched, name)]
    assert missing == []
    assert len(set(edgesched.__all__)) == len(edgesched.__all__)
