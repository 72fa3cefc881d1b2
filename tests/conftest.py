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
