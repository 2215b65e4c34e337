import dse_link


def test_public_names_sorted_unique_and_defined():
    names = dse_link.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(dse_link, name)]
    assert missing == []
