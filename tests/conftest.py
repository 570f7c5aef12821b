import pytest
from scipy.sparse.linalg import splu

import newteig.linalg


@pytest.fixture
def bordered_factors(monkeypatch):
    """Records (matrix, L.nnz + U.nnz) of every sparse LU that
    `solve_bordered` builds, in call order."""
    factors = []

    def recording(a, **kwargs):
        lu = splu(a, **kwargs)
        factors.append((a, lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(newteig.linalg, "splu", recording)
    return factors
