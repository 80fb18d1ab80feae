import collections

import numpy as np
import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts calls of the numpy.linalg eigensolvers, SVD, least squares, QR,
    Cholesky and linear solves, and, under ``norm2``, the SVD hidden in
    ``np.linalg.norm(x, 2)`` of a matrix."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "svd", "lstsq", "qr", "cholesky", "solve"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def norm(x, ord=None, axis=None, keepdims=False, _fn=np.linalg.norm):
        if ord == 2 and axis is None and np.ndim(x) == 2:
            calls["norm2"] += 1
        return _fn(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls
