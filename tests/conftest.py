import pytest

from boxkites import Level, cdp, zd
from boxkites.kites import survey


@pytest.fixture(scope="session")
def lvl4():
    return Level(4)


@pytest.fixture(scope="session")
def lvl5():
    return Level(5)


@pytest.fixture(scope="session")
def sedenion_kites(lvl4):
    return {s: survey(lvl4, s).kites for s in range(1, 8)}


@pytest.fixture(scope="session")
def pathion_surveys(lvl5):
    return {s: survey(lvl5, s) for s in range(1, 16)}


@pytest.fixture
def doctored(monkeypatch):
    """Flip one bit of a copy of the one sign table, so the cell's sign
    changes at every level holding it; the split quadrants are rebuilt
    from it, and again from the real table after.  Flipping a cell again
    flips it back."""

    def flip(r, c):
        rows = tuple(row ^ (a == r) << c for a, row in enumerate(cdp._ROWS))
        monkeypatch.setattr(cdp, "_ROWS", rows)
        zd._split_signs.cache_clear()

    yield flip
    zd._split_signs.cache_clear()
