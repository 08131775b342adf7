"""Bounded-horizon movement planning for a single area."""

import random
import time

import pytest

from mapfkit import motion
from mapfkit.model import SolveTimeout
from mapfkit.motion import (AreaInstance, check_plan, crowding_guard, horizon,
                            plan_movements, relax_and_retry)

from helpers import make_area, node_of
from oracles import joint_bfs


class TestHorizon:
    def test_64_nodes_default_sensitivity(self):
        assert horizon(64, 2.0) == 36

    def test_single_node(self):
        assert horizon(1, 2.0) == 8

    def test_half_sensitivity_halves(self):
        assert horizon(64, 1.0) == 18

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            horizon(0, 2.0)
        with pytest.raises(ValueError):
            horizon(4, 0.0)


class TestCrowdingGuard:
    def test_roomy_area(self):
        assert crowding_guard(64, 10, 2, 4)

    def test_packed_area(self):
        assert not crowding_guard(9, 5, 2, 4)

    def test_boundary_is_inclusive(self):
        assert crowding_guard(10, 4, 2, 4)


def open_area(w, h, aid=1, out_cells=None):
    return make_area(aid, [(x, y) for y in range(h) for x in range(w)], out_cells)


class TestPlanMovements:
    def test_already_at_goal(self):
        area = open_area(2, 2)
        n = node_of(area, (0, 0))
        inst = AreaInstance(area, 0, residents={1: n}, plan_goals={1: n})
        plan = plan_movements(inst, 8)
        assert plan is not None and plan.length == 0
        assert check_plan(inst, plan) == []

    def test_corridor_swap_is_infeasible(self):
        area = make_area(1, [(0, 0), (1, 0)])
        a, b = node_of(area, (0, 0)), node_of(area, (1, 0))
        inst = AreaInstance(area, 0, residents={1: a, 2: b},
                            plan_goals={1: b, 2: a})
        assert plan_movements(inst, 10) is None

    def test_two_independent_agents(self):
        area = open_area(3, 3)
        inst = AreaInstance(
            area, 0,
            residents={1: node_of(area, (0, 0)), 2: node_of(area, (2, 2))},
            plan_goals={1: node_of(area, (2, 0)), 2: node_of(area, (0, 2))})
        plan = plan_movements(inst, 16)
        assert plan is not None and plan.length == 2
        assert check_plan(inst, plan) == []

    def test_incoming_enters_at_step_one(self):
        area = open_area(2, 2, out_cells=[(-1, 0)])
        entry = node_of(area, (-1, 0))
        inst = AreaInstance(area, 1, residents={}, incoming={5: entry},
                            plan_goals={5: node_of(area, (1, 1))})
        plan = plan_movements(inst, 8)
        assert plan is not None
        assert plan.steps[5][0] == entry
        assert plan.steps[5][1] in area.in_nodes
        assert check_plan(inst, plan) == []

    def test_duplicate_goals_fail_fast(self):
        area = open_area(2, 2)
        n = node_of(area, (0, 0))
        inst = AreaInstance(area, 0,
                            residents={1: node_of(area, (1, 0)),
                                       2: node_of(area, (1, 1))},
                            plan_goals={1: n, 2: n})
        assert plan_movements(inst, 8) is None

    def test_goalless_agent_avoids_reserved_rest(self):
        area = make_area(1, [(0, 0), (1, 0), (2, 0)])
        mid = node_of(area, (1, 0))
        inst = AreaInstance(area, 0, residents={1: mid}, reserved={mid},
                            crowding_enforced=True)
        plan = plan_movements(inst, 8)
        assert plan is not None
        assert plan.steps[1][-1] != mid

    def test_crowding_disabled_allows_reserved_rest(self):
        area = make_area(1, [(0, 0), (1, 0), (2, 0)])
        mid = node_of(area, (1, 0))
        inst = AreaInstance(area, 0, residents={1: mid}, reserved={mid},
                            crowding_enforced=False)
        plan = plan_movements(inst, 8)
        assert plan is not None and plan.length == 0

    def test_head_on_corridor_with_passing_bay(self):
        # 3x1 corridor plus one side cell: agents must take turns
        area = make_area(1, [(0, 0), (1, 0), (2, 0), (1, 1)])
        a, b = node_of(area, (0, 0)), node_of(area, (2, 0))
        inst = AreaInstance(area, 0, residents={1: a, 2: b},
                            plan_goals={1: b, 2: a})
        plan = plan_movements(inst, 12)
        assert plan is not None
        assert check_plan(inst, plan) == []
        assert plan.length == joint_bfs(inst, 12)


def random_instance(rng, cells=(1, 12)):
    """An area of `cells[0]`..`cells[1]` connected cells, cut from a grid with
    random holes (up to 4x3; 4x3 to 6x5 for areas over 12 cells), holding
    1-3 agents, some plan goals and some reserved nodes."""
    lo, hi = cells
    grow = 0 if hi <= 12 else 2
    while True:
        w = rng.randrange(2, 5) + grow
        h = rng.randrange(1, 4) + grow
        grid = [(x, y) for y in range(h) for x in range(w)]
        keep = [c for c in grid if rng.random() > 0.2] or grid[:1]
        # the connected component of the first cell, in discovery order
        comp = [keep[0]]
        stack = [keep[0]]
        keepset = set(keep)
        while stack:
            x, y = stack.pop()
            for nb in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if nb in keepset and nb not in comp:
                    comp.append(nb)
                    stack.append(nb)
        if len(comp) >= lo:
            break
    cells = sorted(comp[:hi])
    area = make_area(1, cells)
    nodes = sorted(area.in_nodes)
    n_agents = rng.randrange(1, min(3, len(nodes)) + 1)
    starts = rng.sample(nodes, n_agents)
    residents = {i + 1: s for i, s in enumerate(starts)}
    plan_goals = {}
    gpool = list(nodes)
    for a in residents:
        if rng.random() < 0.7:
            g = rng.choice(gpool)
            gpool.remove(g)
            plan_goals[a] = g
    n_res = rng.randrange(0, 3)
    reserved = set(rng.sample(nodes, min(n_res, len(nodes))))
    return AreaInstance(area, 0, residents=residents, plan_goals=plan_goals,
                        reserved=reserved, crowding_enforced=rng.random() < 0.7)


class TestOracleEquivalence:
    def test_minimal_length_matches_joint_bfs(self):
        rng = random.Random(11)
        # areas of up to 12 cells go to the joint search, larger ones to CBS
        for cells in [(1, 12)] * 60 + [(13, 16)] * 60:
            inst = random_instance(rng, cells)
            assert cells[0] <= len(inst.area.in_nodes) <= cells[1]
            h_m = horizon(len(inst.area.in_nodes), 2.0)
            expected = joint_bfs(inst, h_m)
            plan = plan_movements(inst, h_m)
            if expected is None:
                assert plan is None
            else:
                assert plan is not None and plan.length == expected
                assert check_plan(inst, plan) == []


class TestRelaxAndRetry:
    def blocked_corridor(self):
        # 1x4 corridor; a parked agent with its goal mid-corridor walls off
        # the right end, so a migrant from the right can never reach node 0
        area = make_area(1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        return area

    def test_strips_single_infeasible_migrant(self):
        area = self.blocked_corridor()
        park = node_of(area, (1, 0))
        start = node_of(area, (3, 0))
        exit_border = node_of(area, (0, 0))
        inst = AreaInstance(area, 0,
                            residents={1: park, 2: start},
                            outgoing={2: exit_border},
                            plan_goals={1: park, 2: exit_border})
        plan, stripped = relax_and_retry(inst, 16)
        assert stripped == [2]
        assert plan is not None and check_plan(inst, plan) == []

    def test_farthest_migrant_stripped_first(self):
        # two migrants behind the same parked blocker, distances 3 and 2
        area = make_area(1, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
        park = node_of(area, (1, 0))
        exit_border = node_of(area, (0, 0))
        far, near = node_of(area, (4, 0)), node_of(area, (2, 0))
        inst = AreaInstance(area, 0,
                            residents={1: park, 2: far, 3: near},
                            outgoing={2: exit_border, 3: exit_border},
                            plan_goals={1: park, 2: exit_border, 3: exit_border})
        plan, stripped = relax_and_retry(inst, 20)
        assert stripped[0] == 2
        assert stripped == [2, 3]
        assert plan is not None

    def test_nothing_to_relax(self):
        area = make_area(1, [(0, 0), (1, 0)])
        a, b = node_of(area, (0, 0)), node_of(area, (1, 0))
        inst = AreaInstance(area, 0, residents={1: a, 2: b},
                            plan_goals={1: b, 2: a})
        plan, stripped = relax_and_retry(inst, 10)
        assert plan is None and stripped == []


class TestNodeLimits:
    def crossing(self):
        # two head-on pairs in a 4x2 room: the independent shortest paths
        # collide, so the conflict-based search must branch
        area = open_area(4, 2)
        ends = {1: ((0, 0), (3, 0)), 2: ((3, 0), (0, 0)),
                3: ((0, 1), (3, 1)), 4: ((3, 1), (0, 1))}
        inst = AreaInstance(
            area, 0, residents={a: node_of(area, s) for a, (s, _) in ends.items()},
            plan_goals={a: node_of(area, g) for a, (_, g) in ends.items()})
        return inst, horizon(len(area.in_nodes), 2.0)

    @pytest.mark.parametrize("cbs_limit", [motion.CBS_NODE_LIMIT, 1])
    def test_no_clock_read_without_deadline(self, monkeypatch, cbs_limit):
        # with a CBS limit of 1 the priority search produces the plan
        inst, h_m = self.crossing()
        monkeypatch.setattr(motion, "CBS_NODE_LIMIT", cbs_limit)

        def no_clock():
            raise AssertionError("the planner read the clock")
        monkeypatch.setattr("mapfkit.motion.time.monotonic", no_clock)
        plan = plan_movements(inst, h_m)
        monkeypatch.undo()
        assert plan is not None and check_plan(inst, plan) == []
        assert plan_movements(inst, h_m).steps == plan.steps

    def test_past_deadline_aborts_fallback(self, monkeypatch):
        inst, h_m = self.crossing()
        monkeypatch.setattr(motion, "CBS_NODE_LIMIT", 1)
        with pytest.raises(SolveTimeout):
            plan_movements(inst, h_m, deadline=time.monotonic() - 1.0)

    def test_both_limits_exhausted_is_failure(self, monkeypatch):
        inst, h_m = self.crossing()
        monkeypatch.setattr(motion, "CBS_NODE_LIMIT", 1)
        monkeypatch.setattr(motion, "PRIORITY_NODE_LIMIT", 0)
        assert plan_movements(inst, h_m) is None
