"""Border negotiation: tiers, admission, assignment, blocking, rejection."""

import random
import time

from mapfkit.negotiate import (BlockedBorders, BorderAssignment, IncomingRecord,
                               MigrationCandidate, admit, assign_borders,
                               block_corners, build_tiers, count_blocked,
                               detect_rejections)

from oracles import brute_force_assignment


def cand(agent, tier=1, host_side=True, coord=(0, 0), node=0):
    return MigrationCandidate(agent, node, coord, tier, host_side)


class TestBuildTiers:
    def test_groups_descending(self):
        tiers = build_tiers([cand(1, 3), cand(2, 1), cand(3, 3)])
        assert [[c.agent for c in t] for t in tiers] == [[1, 3], [2]]

    def test_empty(self):
        assert build_tiers([]) == []

    def test_host_side_leads_within_tier(self):
        tiers = build_tiers([cand(1, 2, host_side=False), cand(2, 2, host_side=True)])
        assert [c.agent for c in tiers[0]] == [2, 1]


class TestAdmit:
    def test_single_outgoing_with_spare_capacity(self):
        tiers = build_tiers([cand(1, 2, host_side=True)])
        admitted, n_i, n_o, limit = admit(tiers, 2, 2)
        assert [c.agent for c in admitted] == [1]
        assert admitted[0].mandatory
        assert (n_i, n_o, limit) == (0, 1, 1)

    def test_oversized_tier_is_optional(self):
        tiers = build_tiers([cand(i, 1, host_side=True) for i in (1, 2, 3)])
        admitted, n_i, n_o, limit = admit(tiers, 1, 1)
        assert all(not c.mandatory for c in admitted)
        assert (n_i, n_o, limit) == (0, 3, 1)

    def test_no_candidates(self):
        admitted, n_i, n_o, limit = admit([], 3, 3)
        assert admitted == [] and limit == 0

    def test_stop_after_both_directions_full(self):
        tiers = build_tiers([cand(1, 3, True), cand(2, 3, False),
                             cand(3, 1, True), cand(4, 1, False)])
        admitted, n_i, n_o, limit = admit(tiers, 1, 1)
        # tier 3 fills both sides; tier 1 never admitted
        assert [c.agent for c in admitted] == [1, 2]
        assert limit == 1

    def test_mandatory_marks_bounded_by_shared_pairs(self):
        # one pair in each direction but only one physical border pair total:
        # at most one candidate may be marked mandatory
        tiers = build_tiers([cand(1, 2, True), cand(2, 2, False)])
        admitted, _, _, limit = admit(tiers, 1, 1)
        assert sum(c.mandatory for c in admitted) == 1
        assert limit == 1


class TestAssignBorders:
    coords = {10: (0, 0), 11: (0, 1), 20: (1, 0), 21: (1, 1)}

    def test_single_candidate_distance_zero(self):
        c = cand(1, host_side=True, coord=(0, 0))
        c.mandatory = True
        out = assign_borders([c], [(10, 20)], self.coords, 1)
        assert out == [BorderAssignment(1, 10, 20, 0, True)]

    def test_diagonal_matching(self):
        c1 = cand(1, host_side=True, coord=(0, 0))
        c2 = cand(2, host_side=True, coord=(0, 1))
        c1.mandatory = c2.mandatory = True
        out = assign_borders([c1, c2], [(10, 20), (11, 21)], self.coords, 2)
        total = sum(b.distance for b in out)
        assert total == 0
        assert {(b.agent, b.from_border) for b in out} == {(1, 10), (2, 11)}

    def test_no_swap_on_single_pair(self):
        c1 = cand(1, host_side=True, coord=(0, 0))
        c2 = cand(2, host_side=False, coord=(1, 0))
        c1.mandatory = c2.mandatory = False
        out = assign_borders([c1, c2], [(10, 20)], self.coords, 1)
        assert len(out) == 1

    def test_infeasible_when_over_blocked(self):
        c = cand(1, host_side=True, coord=(0, 0))
        c.mandatory = True
        blocked = BlockedBorders({10}, set())
        assert assign_borders([c], [(10, 20)], self.coords, 1, blocked) is None

    def test_brute_force_equivalence(self):
        rng = random.Random(5)
        for _ in range(200):
            n_pairs = rng.randrange(1, 5)
            pairs = []
            coords = {}
            nid = 10
            for i in range(n_pairs):
                h, o = nid, nid + 1
                nid += 2
                coords[h] = (rng.randrange(5), rng.randrange(5))
                coords[o] = (rng.randrange(5), rng.randrange(5))
                pairs.append((h, o))
            n_c = rng.randrange(1, 5)
            cands = []
            for i in range(n_c):
                c = cand(i + 1, tier=rng.randrange(1, 3), host_side=rng.random() < 0.5,
                         coord=(rng.randrange(5), rng.randrange(5)))
                c.mandatory = rng.random() < 0.5
                cands.append(c)
            limit = rng.randrange(0, min(n_c, n_pairs) + 1)
            if sum(c.mandatory for c in cands) > limit:
                for c in cands:
                    c.mandatory = False

            def blocks(nodes):
                return tuple({n for n in nodes if rng.random() < 0.2} for _ in range(2))
            host_blocked = blocks(h for h, _ in pairs)
            other_blocked = blocks(o for _, o in pairs)
            got = assign_borders(cands, pairs, coords, limit,
                                 BlockedBorders(*host_blocked),
                                 BlockedBorders(*other_blocked))
            want = brute_force_assignment(
                [(c.agent, c.coord, c.host_side, c.mandatory) for c in cands],
                pairs, coords, limit, host_blocked, other_blocked)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert len(got) == limit
            assert sum(b.distance for b in got) == want
            by_agent = {c.agent: c for c in cands}
            assert {c.agent for c in cands if c.mandatory} <= {b.agent for b in got}
            used = set()
            for b in got:
                pair = (b.from_border, b.to_border) if b.host_side else (b.to_border, b.from_border)
                assert pair in pairs and pair not in used
                used.add(pair)
                frm_blocked, to_blocked = ((host_blocked[0], other_blocked[1]) if b.host_side
                                           else (other_blocked[0], host_blocked[1]))
                assert b.from_border not in frm_blocked and b.to_border not in to_blocked
                assert b.host_side == by_agent[b.agent].host_side

    def test_equal_cost_tie_goes_to_longer_plan_first(self):
        # both ways of matching two candidates at (1, 0) to two pairs cost 3;
        # agent 2 has the longer plan, so it comes first and takes its
        # nearer pair
        c1 = cand(1, tier=1, host_side=True, coord=(1, 0))
        c2 = cand(2, tier=2, host_side=True, coord=(1, 0))
        c1.mandatory = c2.mandatory = True
        out = assign_borders([c1, c2], [(10, 20), (11, 21)], self.coords, 2)
        assert out == [BorderAssignment(1, 11, 21, 2, True),
                       BorderAssignment(2, 10, 20, 1, True)]

    def test_equal_cost_optional_tie_keeps_earlier_agent(self):
        # one pair, two optional candidates at the same distance: the lower
        # agent id comes first in the tier and is the one assigned
        c5 = cand(5, host_side=False, coord=(1, 0))
        c3 = cand(3, host_side=False, coord=(1, 0))
        c5.mandatory = c3.mandatory = False
        out = assign_borders([c5, c3], [(10, 20), (11, 21)], self.coords, 1)
        assert out == [BorderAssignment(3, 20, 10, 0, False)]

    def test_equal_distance_options_prefer_lower_from_border(self):
        coords = {10: (0, 0), 12: (0, 2), 20: (1, 0), 22: (1, 2)}
        c = cand(1, host_side=True, coord=(0, 1))
        c.mandatory = True
        out = assign_borders([c], [(12, 22), (10, 20)], coords, 1)
        assert out == [BorderAssignment(1, 10, 20, 1, True)]

    def test_reads_no_clock(self, monkeypatch):
        # the matching is bounded by its size alone, never by time
        def no_clock():
            raise AssertionError("clock read")
        monkeypatch.setattr(time, "monotonic", no_clock)
        monkeypatch.setattr(time, "perf_counter", no_clock)
        rng = random.Random(5)
        pairs = [(100 + i, 200 + i) for i in range(24)]
        coords = {n: (rng.randrange(12), rng.randrange(24)) for p in pairs for n in p}
        cands = []
        for i in range(36):
            c = cand(i + 1, tier=rng.randrange(1, 4), host_side=i % 2 == 0,
                     coord=(rng.randrange(12), rng.randrange(24)))
            c.mandatory = i < 12
            cands.append(c)
        out = assign_borders(cands, pairs, coords, 24)
        assert out is not None and len(out) == 24


class TestBlocking:
    def test_corner_blocks_accumulate(self):
        blocked = BlockedBorders.empty()
        assigns = [BorderAssignment(1, 10, 20, 0, True),
                   BorderAssignment(2, 30, 11, 1, False)]
        block_corners(assigns, {10: frozenset({2, 3}), 11: frozenset({4, 5})}, blocked)
        assert blocked.as_from == {10}
        assert blocked.as_to == {11}

    def test_non_corner_assignment_leaves_state(self):
        blocked = BlockedBorders.empty()
        block_corners([BorderAssignment(1, 10, 20, 0, True)], {}, blocked)
        assert blocked.as_from == set() and blocked.as_to == set()

    def test_count_blocked(self):
        pairs = [(10, 20), (11, 21)]
        host = BlockedBorders({10}, {11})
        other = BlockedBorders(set(), set())
        n_bi, n_bo = count_blocked(pairs, host, other)
        assert (n_bi, n_bo) == (1, 1)

    def test_sequential_pairs_shrink_capacity(self):
        coords = {10: (0, 0), 20: (1, 0)}
        c1 = cand(1, host_side=True, coord=(0, 0))
        c1.mandatory = True
        blocked = BlockedBorders.empty()
        first = assign_borders([c1], [(10, 20)], coords, 1, blocked)
        block_corners(first, {10: frozenset({7, 8})}, blocked)
        c2 = cand(2, host_side=True, coord=(0, 0))
        c2.mandatory = True
        assert assign_borders([c2], [(10, 20)], coords, 1, blocked) is None


class TestRejection:
    def test_host_computed_assignment_wins(self):
        records = [IncomingRecord(1, 50, 2, computed_by=9),
                   IncomingRecord(3, 50, 4, computed_by=5)]
        assert detect_rejections(records, host_solver=9) == {3}

    def test_no_duplicates_no_rejections(self):
        records = [IncomingRecord(1, 50, 2, 9), IncomingRecord(3, 51, 4, 5)]
        assert detect_rejections(records, 9) == set()

    def test_three_way_junction(self):
        records = [IncomingRecord(1, 50, 2, 9),
                   IncomingRecord(3, 50, 4, 5),
                   IncomingRecord(6, 50, 7, 8)]
        assert detect_rejections(records, 9) == {3, 6}

    def test_without_local_contender_lowest_solver_wins(self):
        records = [IncomingRecord(1, 50, 2, 5), IncomingRecord(3, 50, 4, 8)]
        assert detect_rejections(records, host_solver=2) == {3}
