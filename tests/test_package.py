import hypcap


def test_all_names_resolve():
    assert len(set(hypcap.__all__)) == len(hypcap.__all__)
    for name in hypcap.__all__:
        assert getattr(hypcap, name) is not None, name
