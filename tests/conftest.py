import random

import pytest

from cy_smoother.components import P3, build_component
from cy_smoother.schemas import report_to_dict
from cy_smoother.smoothing import NormalCrossingModel
from cy_smoother.surface import K3Model


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def quartic():
    return K3Model.quartic()


def without_lifts(report):
    """``report_to_dict`` without the lifted generator coordinates.

    The cubic, c2 and gram stay: they are written in the canonical RG^2
    generators of each configuration (see ``move_top_center``).
    """
    payload = report_to_dict(report)
    del payload["picard_generators"]
    return payload


def make_model(k3, centers1, centers2):
    return NormalCrossingModel(
        build_component(P3, k3, centers1), build_component(P3, k3, centers2)
    )


@pytest.fixture
def quick_model(quartic):
    """Two copies of P^3 glued along a quartic, one side blown along 8h."""
    return make_model(quartic, [], [(8,)])


@pytest.fixture
def pair1_a(quartic):
    return make_model(quartic, [(5,)], [(3,)])


@pytest.fixture
def pair1_b(quartic):
    return make_model(quartic, [], [(5,), (3,)])


@pytest.fixture
def triple_mu(quartic):
    return make_model(quartic, [], [(5,), (2,), (1,)])


@pytest.fixture
def triple_nu(quartic):
    return make_model(quartic, [], [(5,), (1,), (2,)])


MU_TABLE = {
    (1, 1, 1): 2, (1, 1, 2): 5, (1, 1, 3): 2, (1, 2, 2): 5, (1, 2, 3): 10,
    (1, 3, 3): -4, (2, 2, 2): 5, (2, 2, 3): 10, (2, 3, 3): 20, (3, 3, 3): -32,
}
NU_TABLE = dict(MU_TABLE)
NU_TABLE[(3, 3, 3)] = -40
