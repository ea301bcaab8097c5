import pytest

from voljump import spectral
from voljump.nefcheck import full_report
from voljump.spectral import eigensystem

from helpers import clear_run_caches


@pytest.fixture(scope="session")
def eigen():
    """Certified spectral data at the default 60-digit precision."""
    return eigensystem(60)


@pytest.fixture(scope="session")
def nef(eigen):
    return full_report(eigen)


@pytest.fixture
def bind_transform(monkeypatch):
    """bind(m) makes m the run's matrix at its one binding, `spectral.composite_T`.

    The caches are cleared before and after: a cached eigensystem of either
    matrix would otherwise reach the other's run.
    """

    def bind(m):
        clear_run_caches()
        monkeypatch.setattr(spectral, "composite_T", lambda: m)

    yield bind
    clear_run_caches()
