"""The package's lazy export map."""

import nrsr


def test_every_export_resolves():
    missing = [name for name in nrsr._EXPORTS if not hasattr(nrsr, name)]
    assert not missing
