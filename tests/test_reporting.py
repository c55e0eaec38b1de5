import fedleak.reporting


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fedleak.reporting import *", namespace)
    assert set(fedleak.reporting.__all__) <= set(namespace)
