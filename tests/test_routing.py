"""Next-hop selectors: worked examples, properties, and brute-force
equivalence against independent step-list oracles on all small tables."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_pct_row_sets,
    entry,
    enumerate_tables,
    make_fit,
    oracle_alternates_reliable,
    oracle_next_hop_delay,
    oracle_next_hop_delay_reliable,
    oracle_next_hop_normal,
    oracle_next_hop_reliable,
    oracle_paths_delay_reliable,
    oracle_primary_reliable,
    reference_pct_observe,
)
from qwsn.routing import (
    PCT_CAPACITY,
    PathSet,
    Pct,
    PctEntry,
    Rationale,
    alternates_reliable,
    next_hop_delay,
    next_hop_delay_reliable_intermediate,
    next_hop_normal,
    next_hop_reliable,
    paths_delay_reliable,
    pct_observe,
    primary_reliable,
    remove_failed,
)

SRC, DST, OTHER = 77, 0, 78


def observed(*rows):
    """A fresh PCT holding ``rows``, each recorded through ``pct_observe``."""
    pct = Pct()
    for row in rows:
        pct_observe((pct,), *row)
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
        pct = observed((5, SRC, DST))
        assert tuple(pct.rows) == (PctEntry(5, SRC, DST),)

    def test_duplicate_is_noop(self):
        pct = observed((5, SRC, DST), (6, SRC, DST), (5, SRC, DST))
        assert tuple(pct.rows) == (PctEntry(5, SRC, DST), PctEntry(6, SRC, DST))

    def test_fifo_eviction_at_capacity(self):
        pct = Pct()
        for i in range(PCT_CAPACITY + 1):
            pct_observe((pct,), i, SRC, DST)
        rows = tuple(pct.rows)
        assert len(rows) == PCT_CAPACITY
        assert rows[0] == PctEntry(1, SRC, DST)  # row 0 evicted
        assert rows[-1] == PctEntry(PCT_CAPACITY, SRC, DST)

    def test_rows_unique(self):
        pct = Pct()
        for _ in range(5):
            pct_observe((pct,), 1, SRC, DST)
        assert len(pct.rows) == 1

    @given(
        capacity=st.sampled_from([1, 3, PCT_CAPACITY]),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=47),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2 * PCT_CAPACITY,
            max_size=160,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_in_place_matches_tuple_reference(self, capacity, steps):
        # at least 128 steps over 288 possible rows: rows repeat, and the
        # distinct ones usually outnumber even the default capacity
        pct = Pct(capacity=capacity)
        reference = ()
        for node_id, src, dst in steps:
            pct_observe((pct,), node_id, src, dst)
            reference = reference_pct_observe(reference, node_id, src, dst, capacity)
            assert tuple(pct.rows) == reference

    @given(
        capacities=st.lists(
            st.sampled_from([1, 3, PCT_CAPACITY]), min_size=1, max_size=4
        ),
        steps=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=4, max_size=4),
                st.integers(min_value=0, max_value=47),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2 * PCT_CAPACITY,
            max_size=160,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_many_tables_match_tuple_reference(self, capacities, steps):
        # each step records one row in a subset of the tables, as one
        # overheard transmission does, so the tables drift apart
        pcts = [Pct(capacity=c) for c in capacities]
        references = [()] * len(pcts)
        for chosen, node_id, src, dst in steps:
            picked = [i for i in range(len(pcts)) if chosen[i]]
            pct_observe((pcts[i] for i in picked), node_id, src, dst)
            for i in picked:
                references[i] = reference_pct_observe(
                    references[i], node_id, src, dst, capacities[i]
                )
            assert [tuple(p.rows) for p in pcts] == references


class TestNextHopReliable:
    def test_empty_pct_takes_least_hop(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        decision, pct = next_hop_reliable(fit, Pct(), SRC, DST)
        assert decision.next_hop == 1
        assert PctEntry(1, SRC, DST) in pct.rows

    def test_blocked_for_same_pair(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        pct = observed((1, SRC, DST))
        decision, _ = next_hop_reliable(fit, pct, SRC, DST)
        assert decision.next_hop == 2
        assert decision.rationale is Rationale.ALTERNATE_RELIABLE

    def test_rows_for_other_pairs_do_not_block(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        pct = observed((1, OTHER, DST))
        decision, _ = next_hop_reliable(fit, pct, SRC, DST)
        assert decision.next_hop == 1

    def test_exhaustion_returns_no_route(self):
        fit = make_fit([entry(1, hop=1)])
        pct = observed((1, SRC, DST))
        decision, out = next_hop_reliable(fit, pct, SRC, DST)
        assert decision is None
        assert out is pct

    def test_two_entry_branch_enumeration(self):
        # all three branch conditions over 2-entry tables
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        cases = [
            (Pct(), 1),
            (observed((1, SRC, DST)), 2),
            (observed((1, OTHER, DST)), 1),
        ]
        for pct, expected in cases:
            decision, _ = next_hop_reliable(fit, pct, SRC, DST)
            assert decision.next_hop == expected


class TestNextHopDelay:
    def test_min_wait_among_three_least_hop(self):
        fit = make_fit(
            [
                entry(1, hop=1, queue_len=5),
                entry(2, hop=1, queue_len=2),
                entry(3, hop=2, queue_len=1),
                entry(4, hop=3, queue_len=0),
            ]
        )
        decision = next_hop_delay(fit)
        assert decision.next_hop == 3
        assert decision.rationale is Rationale.MIN_WAIT

    def test_all_queues_equal_least_id_among_least_hop(self):
        fit = make_fit(
            [entry(3, hop=1, queue_len=1), entry(2, hop=1, queue_len=1), entry(1, hop=2, queue_len=1)]
        )
        assert next_hop_delay(fit).next_hop == 2

    def test_single_entry(self):
        fit = make_fit([entry(9, hop=4, queue_len=7)])
        assert next_hop_delay(fit).next_hop == 9

    def test_empty_table(self):
        assert next_hop_delay(make_fit([])) is None

    def test_brute_force_orderings(self):
        import itertools

        for queues in itertools.product(range(3), repeat=4):
            for hops in itertools.product((1, 2, 3), repeat=4):
                fit = make_fit(
                    [
                        entry(i + 1, hop=h, queue_len=q)
                        for i, (h, q) in enumerate(zip(hops, queues))
                    ]
                )
                assert next_hop_delay(fit).next_hop == oracle_next_hop_delay(fit)


class TestPathsDelayReliable:
    def test_primary_and_next_least_wait(self):
        fit = make_fit(
            [
                entry(1, hop=1, queue_len=2),
                entry(2, hop=1, queue_len=4),
                entry(3, hop=2, queue_len=1),
            ]
        )
        paths = paths_delay_reliable(fit)
        assert paths.primary == 3
        assert paths.alternates == (1,)

    def test_single_neighbor(self):
        paths = paths_delay_reliable(make_fit([entry(4, hop=1)]))
        assert paths == PathSet(4, ())

    def test_tie_break_keeps_first_hops_distinct(self):
        fit = make_fit([entry(1, hop=1, queue_len=0), entry(2, hop=1, queue_len=0)])
        paths = paths_delay_reliable(fit)
        assert paths.primary == 1
        assert paths.alternates == (2,)

    def test_empty_table(self):
        assert paths_delay_reliable(make_fit([])) is None

    def test_brute_force_queue_assignments(self):
        import itertools

        for queues in itertools.product(range(4), repeat=3):
            fit = make_fit(
                [entry(i + 1, hop=1 + i % 2, queue_len=q) for i, q in enumerate(queues)]
            )
            paths = paths_delay_reliable(fit)
            primary, alternates = oracle_paths_delay_reliable(fit)
            assert paths.primary == primary
            assert paths.alternates == alternates
            assert paths.primary not in paths.alternates


class TestDelayReliableIntermediate:
    def test_least_wait_ignores_hop_rank(self):
        fit = make_fit([entry(1, hop=2, queue_len=1), entry(2, hop=1, queue_len=5)])
        decision, _ = next_hop_delay_reliable_intermediate(fit, Pct(), SRC, DST)
        assert decision.next_hop == 1

    def test_blocked_least_wait_falls_to_next(self):
        fit = make_fit([entry(1, hop=2, queue_len=1), entry(2, hop=1, queue_len=5)])
        pct = observed((1, SRC, DST))
        decision, _ = next_hop_delay_reliable_intermediate(fit, pct, SRC, DST)
        assert decision.next_hop == 2
        assert decision.rationale is Rationale.ALTERNATE_RELIABLE

    def test_all_blocked_is_no_route(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=1)])
        pct = observed((1, SRC, DST), (2, SRC, DST))
        decision, _ = next_hop_delay_reliable_intermediate(fit, pct, SRC, DST)
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
        decision, _ = next_hop_reliable(pruned, Pct(), SRC, DST)
        if decision is not None:
            assert decision.next_hop != victim

    def test_inputs_not_mutated(self):
        fit = make_fit([entry(1, hop=1), entry(2, hop=2)])
        snapshot = copy.deepcopy(fit)
        remove_failed(fit, 1)
        next_hop_normal(fit)
        next_hop_delay(fit)
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
        assert next_hop_delay(fit_a) == next_hop_delay(fit_b)
