"""Chain-gathering baseline and the lifetime comparison plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import reference_chain
from qwsn.pegasis import (
    ComparisonRow,
    build_chain,
    compare_case4,
    link_lengths,
    run_case4_lifetime,
    run_pegasis_lifetime,
)
from qwsn.sim import SimConfig, Topology, build_topology

BS = (25.0, 150.0)


def chain_length(positions, chain):
    """Total Euclidean length of a chain's links."""
    return float(
        sum(
            np.linalg.norm(positions[chain[i]] - positions[chain[i + 1]])
            for i in range(len(chain) - 1)
        )
    )


class TestBuildChain:
    def test_collinear_nodes_chain_in_spatial_order(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        chain = build_chain(positions, [True] * 3, BS)
        assert chain == [0, 1, 2]

    def test_chain_is_permutation_of_alive_nodes(self):
        cfg = SimConfig(n=30, side=40.0, seed=2)
        topo = build_topology(cfg)
        alive = [True] * 30
        alive[4] = alive[17] = False
        chain = build_chain(topo.positions, alive, BS)
        assert sorted(chain) == [i for i in range(30) if alive[i]]

    def test_greedy_no_longer_than_identity_order(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            positions = rng.uniform(0, 50, size=(40, 2))
            alive = [True] * 40
            greedy = build_chain(positions, alive, BS)
            identity = list(range(40))
            assert chain_length(positions, greedy) <= chain_length(
                positions, identity
            )

    def test_no_alive_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_chain(np.zeros((3, 2)), [False] * 3, BS)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_reference_chain(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            positions = rng.uniform(0, 50, size=(60, 2))
        else:
            # grid points tie on many distances, to the base station too
            positions = rng.integers(0, 6, size=(60, 2)).astype(float) * 10.0
        alive = (rng.random(60) > 0.3).tolist()
        bs = (25.0, 150.0) if seed < 4 else (20.0, 20.0)
        expected = reference_chain(positions, alive, bs)
        assert build_chain(positions, alive, bs) == expected


class TestLinkLengths:
    def test_bitwise_as_numpy_norm(self):
        """The chain's lengths are bitwise what ``np.linalg.norm`` gives, so
        chains and leader costs keep their bits (``einsum`` or ``(v*v).sum``
        differ in the last bit on some pairs)."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            scale = float(np.exp(rng.uniform(np.log(50.0), np.log(1e4))))
            points = rng.uniform(0.0, scale, size=(50, 2))
            bs = points[-1]
            pairs = link_lengths(points[:, None, :] - points[None, :, :])
            expected = [
                [float(np.linalg.norm(a - b)) for b in points] for a in points
            ]
            assert pairs.tolist() == expected
            assert link_lengths(points - bs).tolist() == [
                float(np.linalg.norm(a - bs)) for a in points
            ]


class TestPegasisLifetime:
    # Frozen from the independent mirror loop over the 4-node line below:
    # positions (0,0),(3,0),(6,0),(9,0), BS (4.5, 100), e_init 5 mJ.  The
    # chain starts at the node farthest from the BS, data converges on the
    # rotating leader, and the run ends once two of four nodes are dead.
    LINE = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0], [9.0, 0.0]])
    EXPECTED_LIFETIME = 16
    EXPECTED_PACKETS = 14
    EXPECTED_DISSIPATED = 0.019715075

    def _config(self):
        return SimConfig(n=4, side=10.0, seed=0, e_init=0.005)

    def test_four_node_hand_audit(self):
        topo = Topology(self.LINE)
        result = run_pegasis_lifetime(self._config(), topo, (4.5, 100.0))
        assert result.lifetime_rounds == self.EXPECTED_LIFETIME
        assert result.packets_delivered == self.EXPECTED_PACKETS
        assert result.total_energy_dissipated == pytest.approx(
            self.EXPECTED_DISSIPATED, rel=1e-12
        )

    def test_energy_audit_balances(self):
        cfg = SimConfig(n=25, side=30.0, seed=3, e_init=0.002, failure_fraction=0.1)
        result = run_pegasis_lifetime(cfg, build_topology(cfg), BS)
        assert cfg.n * cfg.e_init - result.energy_residual == pytest.approx(
            result.total_energy_dissipated, rel=1e-9
        )

    def test_lifetime_non_increasing_in_failures(self):
        cfg = SimConfig(n=30, side=30.0, seed=1, e_init=0.002)
        topo = build_topology(cfg)
        lifetimes = [
            run_pegasis_lifetime(
                replace(cfg, failure_fraction=f), topo, BS
            ).lifetime_rounds
            for f in (0.0, 0.1, 0.2, 0.3)
        ]
        assert lifetimes == sorted(lifetimes, reverse=True)

    def test_same_seed_same_lifetime(self):
        cfg = SimConfig(n=25, side=30.0, seed=6, e_init=0.002, failure_fraction=0.2)
        a = run_pegasis_lifetime(cfg, build_topology(cfg), BS)
        b = run_pegasis_lifetime(cfg, build_topology(cfg), BS)
        assert a == b


class TestCase4Lifetime:
    def _config(self):
        # enough battery to survive the one-off long-range flood
        return SimConfig(
            n=24, side=30.0, short_range=15.0, long_range=110.0, seed=0, e_init=0.01
        )

    def test_runs_to_half_death_and_audits(self):
        cfg = self._config()
        result = run_case4_lifetime(cfg, build_topology(cfg))
        assert result.lifetime_rounds > 0
        assert cfg.n * cfg.e_init - result.energy_residual == pytest.approx(
            result.total_energy_dissipated, rel=1e-9
        )

    def test_deterministic(self):
        cfg = replace(self._config(), failure_fraction=0.1)
        a = run_case4_lifetime(cfg, build_topology(cfg))
        b = run_case4_lifetime(cfg, build_topology(cfg))
        assert a == b


class TestCompare:
    def test_rows_schema_and_matched_failures(self):
        cfg = SimConfig(
            n=24, side=30.0, short_range=15.0, long_range=110.0, seed=1, e_init=0.01
        )
        rows = compare_case4(cfg, (0.0, 0.2), BS)
        assert [r.failure_fraction for r in rows] == [0.0, 0.2]
        for row in rows:
            assert isinstance(row, ComparisonRow)
            assert row.lifetime_case4 >= 0
            assert row.lifetime_pegasis >= 0
