import collections

import numpy as np
import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts calls of the numpy.linalg eigensolvers, SVD, least squares and QR."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "svd", "lstsq", "qr"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
