"""Table types, flood update rules and advertised-row checks."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsn.protocol import (
    HOP_INF,
    FitEntry,
    FloodAction,
    advert_from_fit,
    apply_data_req,
    fit_bootstrap,
    prune_low_energy,
    remove_failed,
)


def row(sender, hop, energy=0.5, forwarders=()):
    """The row ``sender`` advertises in its DATA_REQ."""
    return FitEntry(neighbor=sender, energy=energy, hop=hop, forwarders=forwarders)


class TestBootstrap:
    def test_plain_node_starts_unreachable(self):
        fit = fit_bootstrap(7, is_sink=False)
        assert fit.self_hop == HOP_INF
        assert fit.entries == {}

    def test_sink_is_zero_hops_from_itself(self):
        assert fit_bootstrap(0, is_sink=True).self_hop == 0

    def test_bootstrap_is_pure(self):
        assert fit_bootstrap(7, False) == fit_bootstrap(7, False)


class TestApplyDataReq:
    def test_first_packet_from_sink(self):
        fit = fit_bootstrap(7)
        out, action = apply_data_req(fit, row(0, 0))
        assert out.self_hop == 1
        assert action is FloodAction.UPDATED_AND_REBROADCAST
        assert out.entries[0].hop == 0

    def test_equal_distance_recorded(self):
        fit = fit_bootstrap(7)
        fit.self_hop = 4
        out, action = apply_data_req(fit, row(3, 3))
        assert action is FloodAction.RECORDED
        assert out.self_hop == 4
        assert 3 in out.entries

    def test_farther_sender_dropped_but_recorded(self):
        fit = fit_bootstrap(7)
        fit.self_hop = 2
        out, action = apply_data_req(fit, row(9, 5))
        assert action is FloodAction.DROPPED
        assert out.self_hop == 2
        assert out.entries[9].hop == 5

    def test_upsert_refreshes_fields(self):
        fit = fit_bootstrap(7)
        fit.entries[3] = FitEntry(neighbor=3, energy=0.5, hop=4, forwarders=(1,))
        advert = row(3, 2, energy=0.4, forwarders=(2,))
        fit, _ = apply_data_req(fit, advert)
        e = fit.entries[3]
        assert (e.hop, e.energy, e.forwarders) == (2, 0.4, (2,))
        # every receiver of one broadcast stores the advertised row itself
        assert e is advert

    def test_own_packet_rejected(self):
        with pytest.raises(ValueError):
            apply_data_req(fit_bootstrap(7), row(7, 1))

    def test_negative_hop_rejected_by_header(self):
        with pytest.raises(ValueError):
            row(3, -1)

    @given(
        start_hop=st.sampled_from([1, 3, 4, HOP_INF]),
        known=st.dictionaries(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=0, max_value=6),
            max_size=4,
        ),
        senders=st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=5, unique=True
        ),
        hop=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_of_one_wave_match_one_call_per_row(
        self, start_hop, known, senders, hop
    ):
        tables = []
        for _ in range(2):
            fit = fit_bootstrap(9)
            fit.self_hop = start_hop
            for n, known_hop in known.items():
                fit.entries[n] = FitEntry(n, 0.25, known_hop)
            fit.by_hop  # a cached order that the call must reset
            tables.append(fit)
        rows = [row(s, hop) for s in senders]
        single = [apply_data_req(tables[0], r)[1] for r in rows]
        out, action = apply_data_req(tables[1], *rows)
        assert out is tables[1]
        # same rows, same dict order, same hop count, same hop order
        assert list(out.entries.items()) == list(tables[0].entries.items())
        assert out.self_hop == tables[0].self_hop
        assert out.by_hop == tables[0].by_hop
        assert action is single[0]
        later = FloodAction.RECORDED
        if action is FloodAction.DROPPED:
            later = FloodAction.DROPPED
        assert single[1:] == [later] * (len(rows) - 1)

    def test_rows_must_carry_one_hop_count(self):
        with pytest.raises(ValueError):
            apply_data_req(fit_bootstrap(7), row(3, 2), row(4, 3))

    def test_own_packet_among_rows_rejected(self):
        with pytest.raises(ValueError):
            apply_data_req(fit_bootstrap(7), row(3, 1), row(7, 1))

    @given(
        start_hop=st.sampled_from([1, 4, HOP_INF]),
        known=st.dictionaries(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=0, max_value=6),
            max_size=4,
        ),
        sender=st.integers(min_value=1, max_value=6),
        sender_hop=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_in_place_update_matches_copy_rule(self, start_hop, known, sender, sender_hop):
        fit = fit_bootstrap(7)
        fit.self_hop = start_hop
        for n, hop in known.items():
            fit.entries[n] = FitEntry(n, 0.25, hop)
        # the rule as a value: copy the rows, upsert the sender, lower the
        # own hop count on a strictly shorter route
        rows = dict(fit.entries)
        rows[sender] = FitEntry(sender, 0.5, sender_hop)
        expected = replace(
            fit, self_hop=min(start_hop, sender_hop + 1), entries=rows
        )
        out, _ = apply_data_req(fit, row(sender, sender_hop))
        assert out is fit
        assert out == expected

    def test_unreachable_sender_cannot_improve_anyone(self):
        # an advert carrying the sentinel clamps instead of wrapping the
        # 16-bit hop field
        fit = fit_bootstrap(7)
        fit.self_hop = 2
        out, action = apply_data_req(fit, row(3, HOP_INF))
        assert action is FloodAction.DROPPED
        assert out.self_hop == 2
        assert out.entries[3].hop == HOP_INF

    @given(
        hops=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_self_hop_never_increases(self, hops):
        fit = fit_bootstrap(42)
        seen = fit.self_hop
        for i, h in enumerate(hops):
            fit, _ = apply_data_req(fit, row(i, h))
            assert fit.self_hop <= seen
            seen = fit.self_hop

    @given(
        hops=st.dictionaries(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=9),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_one_entry_per_neighbor(self, hops):
        fit = fit_bootstrap(99)
        for sender, h in hops.items():
            fit, _ = apply_data_req(fit, row(sender, h))
            fit, _ = apply_data_req(fit, row(sender, h))
        assert set(fit.entries) == set(hops)


class TestHopOrder:
    """``Fit.by_hop`` is cached; every update path must leave it true."""

    _step = st.one_of(
        st.tuples(
            st.just("apply"),
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=0, max_value=4),
            st.sampled_from([0.05, 0.5]),
        ),
        st.tuples(st.just("remove"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("prune"), st.sampled_from([0.0, 0.1, 1.0])),
        st.tuples(st.just("read")),
    )

    @staticmethod
    def _expected(fit):
        return tuple(sorted(fit.entries.values(), key=lambda e: (e.hop, e.neighbor)))

    @given(steps=st.lists(_step, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_order_matches_a_fresh_sort_after_any_updates(self, steps):
        fit = fit_bootstrap(0)
        for step in steps:
            if step[0] == "apply":
                _, sender, hop, energy = step
                fit, _ = apply_data_req(fit, row(sender, hop, energy=energy))
            elif step[0] == "remove":
                parent = fit
                fit = remove_failed(fit, step[1])
                if fit is not parent:
                    # the parent's order is built, and holds the removed row
                    assert step[1] in {e.neighbor for e in parent.by_hop}
            elif step[0] == "prune":
                fit = prune_low_energy(fit, step[1])
            else:
                assert fit.by_hop == self._expected(fit)
        assert fit.by_hop == self._expected(fit)

    def test_copy_does_not_carry_the_parents_order(self):
        fit = fit_bootstrap(0)
        for sender, hop, energy in ((1, 1, 0.5), (2, 0, 0.05), (3, 2, 0.5)):
            fit, _ = apply_data_req(fit, row(sender, hop, energy=energy))
        assert [e.neighbor for e in fit.by_hop] == [2, 1, 3]
        assert [e.neighbor for e in remove_failed(fit, 2).by_hop] == [1, 3]
        assert [e.neighbor for e in prune_low_energy(fit, 0.1).by_hop] == [1, 3]
        assert [e.neighbor for e in replace(fit, entries={}).by_hop] == []
        assert [e.neighbor for e in fit.by_hop] == [2, 1, 3]


class TestAdvert:
    def _fit_with(self, mapping):
        fit = fit_bootstrap(99)
        fit.self_hop = 3
        for sender, h in mapping.items():
            fit, _ = apply_data_req(fit, row(sender, h))
        fit.self_hop = 3
        return fit

    def test_three_least_hop_neighbors(self):
        fit = self._fit_with({10: 1, 11: 1, 12: 2, 13: 3})
        advert = advert_from_fit(fit, 0.25)
        assert advert == row(99, 3, energy=0.25, forwarders=(10, 11, 12))

    def test_degenerate_single_neighbor(self):
        fit = self._fit_with({10: 2})
        assert advert_from_fit(fit, 0.25).forwarders == (10,)

    def test_tie_break_lowest_ids(self):
        # all at equal hop: lowest three ids, regardless of arrival order
        import itertools

        for order in itertools.permutations([14, 11, 13, 12]):
            fit = fit_bootstrap(99)
            fit.self_hop = 2
            for sender in order:
                fit, _ = apply_data_req(fit, row(sender, 1))
            fit.self_hop = 2
            assert advert_from_fit(fit, 0.25).forwarders == (11, 12, 13)

    def test_unreachable_node_cannot_advertise(self):
        with pytest.raises(ValueError):
            advert_from_fit(fit_bootstrap(7), 0.25)

    def test_forwarders_are_known_entries(self):
        fit = self._fit_with({5: 1, 6: 2, 7: 2, 8: 4})
        advert = advert_from_fit(fit, 0.25)
        assert set(advert.forwarders) <= set(fit.entries)


class TestPrune:
    def _fit_with_energy(self, mapping):
        fit = fit_bootstrap(99)
        for sender, energy in mapping.items():
            fit, _ = apply_data_req(fit, row(sender, 1, energy=energy))
        return fit

    def test_below_threshold_removed(self):
        fit = self._fit_with_energy({1: 0.1, 2: 0.5})
        assert set(prune_low_energy(fit, 0.2).entries) == {2}

    def test_zero_threshold_is_identity(self):
        fit = self._fit_with_energy({1: 0.1, 2: 0.5})
        assert prune_low_energy(fit, 0.0).entries == fit.entries

    def test_exhaustive_small_tables(self):
        # every subset of two energy levels against one threshold
        levels = [0.1, 0.5]
        for bits in range(2**4):
            mapping = {
                i: levels[(bits >> i) & 1] for i in range(4)
            }
            fit = self._fit_with_energy(mapping)
            pruned = prune_low_energy(fit, 0.2)
            expected = {i for i, e in mapping.items() if e >= 0.2}
            assert set(pruned.entries) == expected

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune_low_energy(fit_bootstrap(1), -1.0)


class TestHeaderValidation:
    def test_forwarders_distinct(self):
        with pytest.raises(ValueError):
            row(1, 0, forwarders=(2, 2))

    def test_forwarders_exclude_sender(self):
        with pytest.raises(ValueError):
            row(1, 0, forwarders=(1,))

    def test_at_most_three_forwarders(self):
        with pytest.raises(ValueError):
            row(1, 0, forwarders=(2, 3, 4, 5))

    def test_neighbor_id_range(self):
        with pytest.raises(ValueError):
            row(2**32, 0)

    def test_entry_hop_range(self):
        with pytest.raises(ValueError):
            FitEntry(neighbor=1, energy=0.5, hop=HOP_INF + 1)
