import pytest

from boxkites import Level
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
