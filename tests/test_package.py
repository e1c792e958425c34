import logsense_ks


def test_every_exported_name_resolves():
    exported = logsense_ks.__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [name for name in exported if not hasattr(logsense_ks, name)]
    assert not missing, f"__all__ names what the package lacks: {missing}"
