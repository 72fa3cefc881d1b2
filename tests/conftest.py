import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


@pytest.fixture
def s2_t_nodes(monkeypatch):
    """Node counts of the ln S2 t rules built while the test runs, one per rule."""
    import hypq.special as S

    sizes = []
    panels = S._panels_on

    def counted(a, b, width):
        t, wt = panels(a, b, width)
        sizes.append(t.size)
        return t, wt

    monkeypatch.setattr(S, "_panels_on", counted)
    return sizes


@pytest.fixture
def kg_cache():
    """The Kg proxy table cache, emptied before the test and again after it,
    so that no table built under the test's stubs outlives it."""
    from hypq import kernels

    kernels._kg_real_tables.cache_clear()
    yield kernels._kg_real_tables
    kernels._kg_real_tables.cache_clear()


@pytest.fixture
def gk_nodes(monkeypatch):
    """Integrand nodes of the Gauss-Kronrod batches evaluated while the test
    runs, one count per batch."""
    from hypq import quad

    sizes = []
    batch = quad._gk_batch

    def counted(f, lo, hi, own):
        sizes.append(lo.size * quad._K_NODES.size)
        return batch(f, lo, hi, own)

    monkeypatch.setattr(quad, "_gk_batch", counted)
    return sizes
