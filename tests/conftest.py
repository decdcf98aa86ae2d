import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hodsim.scenario import default_scenario, load_scenario


def tiny_document(**overrides):
    """Small two-AP world: fast to simulate, rich enough for engine tests.

    Both APs cover the whole 100x50 strip, so terminals always sense both
    and every step offers a handover opportunity.
    """
    doc = {
        "sim_time": 10.0,
        "decision_step": 0.5,
        "area": [100.0, 50.0],
        "rng_seed": 7,
        "mobility_ratio": 0.5,
        "criteria": [
            {"id": "bandwidth", "direction": "benefit", "alpha": 0.5},
            {"id": "delay", "direction": "cost", "alpha": 1.0},
        ],
        "strategy": {"kind": "none", "parameter": 0.0},
        "aps": [
            {
                "id": "apA",
                "position": [25.0, 25.0],
                "coverage_radius": 90.0,
                "base_qos": {"bandwidth": 54.0, "delay": 2.0},
                "wired_neighbors": ["apB"],
            },
            {
                "id": "apB",
                "position": [75.0, 25.0],
                "coverage_radius": 90.0,
                "base_qos": {"bandwidth": 36.0, "delay": 2.0},
                "wired_neighbors": ["apA"],
            },
        ],
        "users": [
            {"id": "m0", "mobile": True, "initial_position": [40.0, 25.0]},
            {"id": "m1", "mobile": True, "initial_position": [60.0, 25.0]},
            {"id": "s0", "mobile": False, "initial_position": [20.0, 20.0]},
            {"id": "s1", "mobile": False, "initial_position": [80.0, 30.0]},
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def tiny_config():
    return load_scenario(tiny_document())


@pytest.fixture(scope="session")
def default_config():
    return default_scenario()
