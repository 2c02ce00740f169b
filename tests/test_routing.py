"""Next-hop selectors: worked examples, properties, and brute-force
equivalence against independent step-list oracles on all small tables."""

import copy
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    entry,
    enumerate_tables,
    make_fit,
    oracle_alternates_reliable,
    oracle_next_hop_delay,
    oracle_next_hop_normal,
    oracle_paths_delay_reliable,
    oracle_primary_reliable,
)
from qwsn.protocol import prune_low_energy, remove_failed
from qwsn.routing import (
    Pct,
    Rationale,
    RouteDecision,
    alternates_reliable,
    next_hop_delay,
    next_hop_delay_reliable_intermediate,
    next_hop_normal,
    next_hop_reliable,
    paths_delay_reliable,
    pct_observe,
    primary_reliable,
)

SRC, OTHER = 77, 78


def observed(*rows):
    """A fresh PCT holding the overheard ``(forwarder, src)`` pairs ``rows``,
    each recorded through ``pct_observe``."""
    pct = Pct()
    for forwarder, src in rows:
        pct_observe(pct, forwarder, src)
    return pct


class TestNextHopNormal:
    def test_max_energy_among_least_hop_candidates(self):
        fit = make_fit(
            [
                entry(2, hop=2, energy=0.9),
                entry(3, hop=1, energy=0.4),
                entry(4, hop=3, energy=0.5),
            ]
        )
        decision = next_hop_normal(fit)
        assert decision.next_hop == 2
        assert decision.rationale is Rationale.MIN_HOP_MAX_ENERGY

    def test_single_entry(self):
        fit = make_fit([entry(5, hop=1, energy=0.2)])
        assert next_hop_normal(fit).next_hop == 5

    def test_fallback_fires_when_every_candidate_is_vetoed(self):
        # exhaustively: 3-entry tables where every forwarder list points back
        # into the neighbour set, so the veto holds for every pick
        import itertools

        for hops in itertools.product((1, 2), repeat=3):
            ids = (1, 2, 3)
            entries = [
                entry(i, hop=h, energy=0.5, forwarders=(ids[(k + 1) % 3],))
                for k, (i, h) in enumerate(zip(ids, hops))
            ]
            decision = next_hop_normal(make_fit(entries))
            assert decision is not None
            assert decision.rationale is Rationale.FALLBACK
            expected, kind = oracle_next_hop_normal(make_fit(entries))
            assert kind == "fallback"
            assert decision.next_hop == expected

    def test_no_route_on_empty_pool(self):
        fit = make_fit([entry(1, hop=1)])
        assert next_hop_normal(fit, excluded={1}) is None

    def test_excluded_entries_ignored(self):
        fit = make_fit([entry(1, hop=1, energy=0.9), entry(2, hop=1, energy=0.1)])
        assert next_hop_normal(fit, excluded={1}).next_hop == 2

    @given(
        energies=st.lists(
            st.integers(min_value=0, max_value=8), min_size=1, max_size=4
        ),
        scale=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        shift=st.sampled_from([0.0, 1.0, 2.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_choice_invariant_under_monotone_energy_rescale(
        self, energies, scale, shift
    ):
        # exact binary-representable grids keep ties exact under the map
        base = make_fit(
            [entry(i + 1, hop=1 + i % 2, energy=float(e)) for i, e in enumerate(energies)]
        )
        mapped = make_fit(
            [
                entry(i + 1, hop=1 + i % 2, energy=scale * float(e) + shift)
                for i, e in enumerate(energies)
            ]
        )
        assert next_hop_normal(base) == next_hop_normal(mapped)


class TestPrimaryReliable:
    def test_least_hop_above_threshold(self):
        import itertools

        rows = [(1, 1, 0.5), (2, 1, 0.1), (3, 2, 0.9)]
        for perm in itertools.permutations(rows):
            fit = make_fit([entry(i, hop=h, energy=e) for i, h, e in perm])
            decision = primary_reliable(fit, 0.2)
            assert decision.next_hop == 1
            assert decision.rationale is Rationale.PRIMARY_RELIABLE

    def test_single_survivor(self):
        fit = make_fit([entry(1, hop=3, energy=0.5)])
        assert primary_reliable(fit, 0.2).next_hop == 1

    def test_all_below_threshold(self):
        fit = make_fit([entry(1, hop=1, energy=0.05)])
        assert primary_reliable(fit, 0.2) is None


class TestAlternatesReliable:
    def test_two_least_hop_excluding_primary(self):
        fit = make_fit(
            [entry(1, hop=1), entry(2, hop=1), entry(3, hop=2), entry(4, hop=3)]
        )
        assert alternates_reliable(fit, 1) == (2, 3)

    def test_one_alternate(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        assert alternates_reliable(fit, 1) == (2,)

    def test_no_alternates(self):
        fit = make_fit([entry(1, hop=1)])
        assert alternates_reliable(fit, 1) == ()


class TestPct:
    def test_insert(self):
        pct = observed((5, SRC))
        pct_observe(pct, 6, SRC, 3)
        assert pct.heard == {(5, SRC)}
        assert pct.own == {(3, 6, SRC)}

    def test_duplicate_is_noop(self):
        pct = observed((5, SRC), (6, SRC), (5, SRC))
        assert pct.heard == {(5, SRC), (6, SRC)}

    def test_rows_unique(self):
        pct = Pct()
        for _ in range(5):
            pct_observe(pct, 1, SRC, 3)
        assert len(pct.own) == 1


class TestNextHopReliable:
    def test_empty_pct_takes_least_hop(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        empty = Pct()
        decision, pct = next_hop_reliable(fit, empty, SRC)
        assert decision.next_hop == 1
        # the selector only reads the table; the engine records the pick
        assert pct is empty
        assert not pct.heard and not pct.own

    def test_blocked_for_same_pair(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        pct = observed((1, SRC))
        decision, _ = next_hop_reliable(fit, pct, SRC)
        assert decision.next_hop == 2
        assert decision.rationale is Rationale.ALTERNATE_RELIABLE

    def test_rows_for_other_pairs_do_not_block(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        pct = observed((1, OTHER))
        decision, _ = next_hop_reliable(fit, pct, SRC)
        assert decision.next_hop == 1

    def test_exhaustion_returns_no_route(self):
        fit = make_fit([entry(1, hop=1)])
        pct = observed((1, SRC))
        # a PCT-blocked row is still an unused edge, taken past stage 1
        decision, out = next_hop_reliable(fit, pct, SRC)
        assert decision == RouteDecision(1, Rationale.FALLBACK)
        assert out is pct
        # once every edge is used, no route is left
        decision, out = next_hop_reliable(fit, pct, SRC, tried={1})
        assert decision is None
        assert out is pct

    def test_two_entry_branch_enumeration(self):
        # all three branch conditions over 2-entry tables
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        cases = [
            (Pct(), 1),
            (observed((1, SRC)), 2),
            (observed((1, OTHER)), 1),
        ]
        for pct, expected in cases:
            decision, _ = next_hop_reliable(fit, pct, SRC)
            assert decision.next_hop == expected

    def test_rows_farther_from_the_sink_are_never_picked(self):
        # the node is two hops out: row 2 is level with it, row 3 farther
        fit = make_fit([entry(1, hop=1), entry(2, hop=2), entry(3, hop=3)], self_hop=2)
        decision, _ = next_hop_reliable(fit, observed((1, SRC)), SRC)
        assert decision == RouteDecision(2, Rationale.ALTERNATE_RELIABLE)
        # with both sink-ward rows blocked, stage 2 still prefers them
        decision, _ = next_hop_reliable(fit, observed((1, SRC), (2, SRC)), SRC)
        assert decision == RouteDecision(1, Rationale.FALLBACK)

    def test_threshold_skips_a_row_in_stage_one_only(self):
        fit = make_fit([entry(1, hop=1, energy=0.005), entry(2, hop=1)])
        decision, _ = next_hop_reliable(fit, Pct(), SRC, e_threshold=0.01)
        # a row below the threshold is passed over, not blocked
        assert decision == RouteDecision(2, Rationale.PRIMARY_RELIABLE)
        decision, _ = next_hop_reliable(
            fit, observed((2, SRC)), SRC, e_threshold=0.01
        )
        assert decision == RouteDecision(1, Rationale.FALLBACK)

    def test_farther_row_once_no_sink_ward_edge_is_left(self):
        fit = make_fit([entry(1, hop=1), entry(3, hop=3)], self_hop=2)
        decision, _ = next_hop_reliable(fit, Pct(), SRC, tried={1})
        assert decision == RouteDecision(3, Rationale.FALLBACK)

    def test_backtracks_to_prev_then_parent_over_unused_edges(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2), entry(3, hop=3)], self_hop=2)
        select = partial(next_hop_reliable, fit, Pct(), SRC)
        # prev and parent are no forward candidates
        assert select(2, set(), 1)[0] == RouteDecision(3, Rationale.FALLBACK)
        assert select(2, {3}, 1)[0] == RouteDecision(2, Rationale.BACKTRACK)
        assert select(2, {2, 3}, 1)[0] == RouteDecision(1, Rationale.BACKTRACK)
        assert select(2, {1, 2, 3}, 1)[0] is None
        # a back edge to a node no longer in the table is not taken
        assert select(9, {1, 2, 3}, None)[0] is None


def waits(queues):
    """The queue-length lookup the wait-ranked selectors take."""
    return queues.__getitem__


class TestNextHopDelay:
    def test_min_wait_among_three_least_hop(self):
        fit = make_fit(
            [entry(1, hop=1), entry(2, hop=1), entry(3, hop=2), entry(4, hop=3)]
        )
        decision = next_hop_delay(fit, waits({1: 5, 2: 2, 3: 1, 4: 0}))
        assert decision.next_hop == 3
        assert decision.rationale is Rationale.MIN_WAIT

    def test_all_queues_equal_least_id_among_least_hop(self):
        fit = make_fit([entry(3, hop=1), entry(2, hop=1), entry(1, hop=2)])
        assert next_hop_delay(fit, waits({1: 1, 2: 1, 3: 1})).next_hop == 2

    def test_single_entry(self):
        fit = make_fit([entry(9, hop=4)])
        assert next_hop_delay(fit, waits({9: 7})).next_hop == 9

    def test_empty_table(self):
        assert next_hop_delay(make_fit([]), waits({})) is None

    def test_excluded_rows_leave_the_shortlist(self):
        fit = make_fit(
            [entry(1, hop=1), entry(2, hop=1), entry(3, hop=2), entry(4, hop=3)]
        )
        queues = waits({1: 5, 2: 2, 3: 1, 4: 0})
        # without 3, the shortlist is 1, 2 and 4, and 4 waits least
        assert next_hop_delay(fit, queues, frozenset({3})).next_hop == 4
        assert next_hop_delay(fit, queues, frozenset({1, 2, 3, 4})) is None

    def test_brute_force_orderings(self):
        import itertools

        for qs in itertools.product(range(3), repeat=4):
            queues = {i + 1: q for i, q in enumerate(qs)}
            for hops in itertools.product((1, 2, 3), repeat=4):
                fit = make_fit([entry(i + 1, hop=h) for i, h in enumerate(hops)])
                assert next_hop_delay(fit, waits(queues)).next_hop == (
                    oracle_next_hop_delay(fit, queues)
                )


class TestPathsDelayReliable:
    def test_primary_and_next_least_wait(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=1), entry(3, hop=2)])
        paths = paths_delay_reliable(fit, waits({1: 2, 2: 4, 3: 1}))
        assert paths == (3, 1)

    def test_single_neighbor(self):
        paths = paths_delay_reliable(make_fit([entry(4, hop=1)]), waits({4: 0}))
        assert paths == (4,)

    def test_tie_break_keeps_first_hops_distinct(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=1)])
        paths = paths_delay_reliable(fit, waits({1: 0, 2: 0}))
        assert paths == (1, 2)

    def test_empty_table(self):
        assert paths_delay_reliable(make_fit([]), waits({})) is None

    def test_brute_force_queue_assignments(self):
        import itertools

        for qs in itertools.product(range(4), repeat=3):
            queues = {i + 1: q for i, q in enumerate(qs)}
            fit = make_fit([entry(i + 1, hop=1 + i % 2) for i in range(3)])
            paths = paths_delay_reliable(fit, waits(queues))
            primary, alternates = oracle_paths_delay_reliable(fit, queues)
            assert paths == (primary, *alternates)
            assert len(set(paths)) == len(paths)


class TestDelayReliableIntermediate:
    def test_least_wait_ignores_hop_rank(self):
        fit = make_fit([entry(1, hop=2), entry(2, hop=1)])
        decision, _ = next_hop_delay_reliable_intermediate(
            fit, Pct(), SRC, wait=waits({1: 1, 2: 5})
        )
        assert decision.next_hop == 1

    def test_blocked_least_wait_falls_to_next(self):
        fit = make_fit([entry(1, hop=2), entry(2, hop=1)])
        pct = observed((1, SRC))
        decision, _ = next_hop_delay_reliable_intermediate(
            fit, pct, SRC, wait=waits({1: 1, 2: 5})
        )
        assert decision.next_hop == 2
        assert decision.rationale is Rationale.ALTERNATE_RELIABLE

    def test_all_blocked_falls_back_by_least_wait(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=1)])
        pct = observed((1, SRC), (2, SRC))
        decision, _ = next_hop_delay_reliable_intermediate(
            fit, pct, SRC, wait=waits({1: 3, 2: 0})
        )
        assert decision == RouteDecision(2, Rationale.FALLBACK)

    def test_rows_farther_from_the_sink_are_never_picked(self):
        # the node is two hops out: row 3 waits least but is farther, row 2
        # is level with the node and waits less than row 1
        fit = make_fit([entry(1, hop=1), entry(2, hop=2), entry(3, hop=3)], self_hop=2)
        wait = waits({1: 4, 2: 2, 3: 0})
        decision, _ = next_hop_delay_reliable_intermediate(fit, Pct(), SRC, wait=wait)
        assert decision == RouteDecision(2, Rationale.MIN_WAIT)
        # with both sink-ward rows blocked, stage 2 still prefers them
        decision, _ = next_hop_delay_reliable_intermediate(
            fit, observed((1, SRC), (2, SRC)), SRC, wait=wait
        )
        assert decision == RouteDecision(2, Rationale.FALLBACK)

    def test_no_threshold_and_no_backtrack(self):
        fit = make_fit([entry(1, hop=1, energy=0.0), entry(2, hop=2)], self_hop=2)
        wait = waits({1: 0, 2: 0})
        decision, _ = next_hop_delay_reliable_intermediate(fit, Pct(), SRC, wait=wait)
        assert decision == RouteDecision(1, Rationale.MIN_WAIT)
        # every edge but the one back to prev is used, and the hybrid never
        # goes back
        decision, _ = next_hop_delay_reliable_intermediate(
            fit, Pct(), SRC, 1, {2}, None, wait=wait
        )
        assert decision is None


class TestRemoveFailed:
    def test_delete(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        assert set(remove_failed(fit, 1).entries) == {2}

    def test_absent_is_noop(self):
        fit = make_fit([entry(1, hop=1)])
        assert remove_failed(fit, 9) is fit

    @given(
        ids=st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_selection_never_returns_removed(self, ids, data):
        fit = make_fit([entry(i, hop=1 + i % 3, energy=float(i % 4)) for i in ids])
        victim = data.draw(st.sampled_from(sorted(ids)))
        pruned = remove_failed(fit, victim)
        decision = next_hop_normal(pruned)
        if decision is not None:
            assert decision.next_hop != victim
        decision, _ = next_hop_reliable(pruned, Pct(), SRC)
        if decision is not None:
            assert decision.next_hop != victim

    def test_inputs_not_mutated(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        snapshot = copy.deepcopy(fit)
        remove_failed(fit, 1)
        prune_low_energy(fit, 1.5)
        next_hop_normal(fit)
        next_hop_delay(fit, waits({1: 0, 2: 0}))
        assert fit == snapshot


class TestBruteForceEquivalence:
    """Exhaustive agreement with the independent step-list implementations
    on every neighbour table of size <= 4 over small attribute domains."""

    def test_next_hop_normal_tables(self):
        from oracles import check_next_hop_normal_equivalence

        assert check_next_hop_normal_equivalence() > 10_000

    def test_reliable_selectors_tables(self):
        from oracles import check_reliable_selector_equivalence

        assert check_reliable_selector_equivalence() > 1_000

    def test_delay_selectors_tables(self):
        from oracles import check_delay_selector_equivalence

        assert check_delay_selector_equivalence() > 1_000

    def test_pct_checked_selectors_tables(self):
        from oracles import check_pct_selector_equivalence

        assert check_pct_selector_equivalence() > 1_000


class TestDeterminism:
    def test_identical_inputs_identical_decisions(self):
        fit_a = make_fit([entry(3, hop=1, energy=0.5), entry(1, hop=2, energy=0.7)])
        fit_b = make_fit([entry(1, hop=2, energy=0.7), entry(3, hop=1, energy=0.5)])
        assert next_hop_normal(fit_a) == next_hop_normal(fit_b)
        queues = waits({1: 0, 3: 0})
        assert next_hop_delay(fit_a, queues) == next_hop_delay(fit_b, queues)
