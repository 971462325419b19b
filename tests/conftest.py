import pytest

from chemofront import slab


@pytest.fixture
def capped_slab_newton(monkeypatch):
    # two Newton steps per solve, too few for any slab wave to converge; the
    # cached FKPP waves are dropped on entry, since a warm one would hand a
    # chi = 0 solve a converged start, and on exit, so that no wave solved
    # under the cap outlives the test
    monkeypatch.setattr(slab, "NEWTON_MAX_ITER", 2)
    slab._fkpp_wave.cache_clear()
    yield
    slab._fkpp_wave.cache_clear()
