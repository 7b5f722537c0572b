import numpy as np
import pytest

from coarsek import coarse, controlled
from coarsek.geometry import build_complex, circle_space, discretize


@pytest.fixture(scope="session")
def edge_complex():
    return build_complex([(0, 1)])


@pytest.fixture(scope="session")
def edge_space(edge_complex):
    return discretize(edge_complex, 0.5)


@pytest.fixture(scope="session")
def triangle_complex():
    return build_complex([(0, 1, 2)])


@pytest.fixture(scope="session")
def triangle_space(triangle_complex):
    return discretize(triangle_complex, 0.5, fiber_dim=1)


@pytest.fixture(scope="session")
def small_circle():
    # 8-gon, coarse mesh: 16 samples around the circle
    return circle_space(8, mesh=2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def judged(monkeypatch):
    """Copies of the report of every ``judge_certificate`` call in a test."""
    reports = []
    original = controlled.judge_certificate

    def spy(*args):
        ok, report = original(*args)
        reports.append(dict(report))
        return ok, report

    for module in (controlled, coarse):
        monkeypatch.setattr(module, "judge_certificate", spy)
    return reports


def assert_same_report(got, want):
    """Same keys, and every value the same to the last bit."""
    assert got.keys() == want.keys()
    for key in want:
        assert repr(got[key]) == repr(want[key]), key
