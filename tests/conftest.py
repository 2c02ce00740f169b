"""Shared acceptance sweep fixtures (built once per session)."""

import pytest

from qwsn.harness import ScenarioConfig, run_sweep, sim_config

ACCEPT_SIZES = (50, 75, 100, 125, 150)
ACCEPT_FAILURE_SIZES = (50, 75, 100, 125)
ACCEPT_FRACTIONS = (0.1, 0.2)
ACCEPT_SEEDS = tuple(range(10))


def _config(n, fraction, seed):
    return sim_config(ScenarioConfig(), n, fraction, seed)


def _run_grid(sizes, fractions, seeds):
    """Runs keyed ``(qos, n, fraction, seed)`` for every class of the grid."""
    scenario = ScenarioConfig(sizes=sizes, failures=fractions, seeds=seeds)
    return run_sweep(scenario, keep_runs=True).runs


@pytest.fixture(scope="session")
def energy_latency_runs():
    """Zero-failure grid: sizes 50..150, all classes, ten topologies each."""
    return _run_grid(ACCEPT_SIZES, (0.0,), ACCEPT_SEEDS)


@pytest.fixture(scope="session")
def failure_runs():
    """Failure grid: sizes 50..125, 10 % and 20 % dead, all classes."""
    return _run_grid(ACCEPT_FAILURE_SIZES, ACCEPT_FRACTIONS, ACCEPT_SEEDS)
