"""Tiling, areas, links, corners, agent placement."""

import random

import pytest

from mapfkit.model import parse_grid
from mapfkit.partition import (PartitionError, assign_agents, divide,
                               dump_partition, load_partition)


def open_map(w, h, header="agent 1 0 0"):
    return parse_grid(header + "\n\n" + "\n".join(["." * w] * h) + "\n")


class TestDivide:
    def test_24x24_default_tiles(self):
        subs, links = divide(open_map(24, 24), 8, 8)
        assert len(subs) == 9
        for sub in subs:
            assert len(sub.areas) == 1
            assert len(sub.areas[0].in_nodes) == 64

    def test_wall_splits_tile_into_two_areas(self):
        rows = ["...#...."] * 8
        p = parse_grid("agent 1 0 0\n\n" + "\n".join(rows) + "\n")
        subs, _ = divide(p, 8, 8)
        assert len(subs) == 1
        assert len(subs[0].areas) == 2

    def test_4x2_map_link_count(self):
        subs, links = divide(open_map(4, 2), 2, 2)
        assert len(subs) == 2
        a1 = subs[0].areas[0].id
        a2 = subs[1].areas[0].id
        assert links.border_pairs(a1, a2) == sorted(links.pairs[(a1, a2)])
        assert len(links.pairs[(a1, a2)]) == 2

    def test_small_tiles_rejected(self):
        with pytest.raises(PartitionError):
            divide(open_map(4, 4), 1, 2)

    def test_empty_tiles_dropped(self):
        # right half entirely obstacles: only the left tile survives
        rows = [".." + "##"] * 2
        p = parse_grid("agent 1 0 0\n\n" + "\n".join(rows) + "\n")
        subs, _ = divide(p, 2, 2)
        assert len(subs) == 1

    def test_area_ids_follow_solver_order(self):
        subs, _ = divide(open_map(24, 24), 8, 8)
        pairs = [(a.id, sub.id) for sub in subs for a in sub.areas]
        ids = [i for i, _ in pairs]
        solvers = [s for _, s in pairs]
        assert ids == sorted(ids)
        assert solvers == sorted(solvers)

    def test_dump_round_trip(self):
        subs, links = divide(open_map(8, 4), 4, 4)
        subs2, links2 = load_partition(dump_partition(subs, links))
        assert [s.to_dict() for s in subs2] == [s.to_dict() for s in subs]
        assert links2.to_dict() == links.to_dict()


class TestCorners:
    def test_four_tile_junction(self):
        subs, _ = divide(open_map(4, 4), 2, 2)
        # the inner node of each 2x2 tile touches the two orthogonal
        # neighbor areas, so all four are corners
        inner = {(1, 1), (2, 1), (1, 2), (2, 2)}
        corner_coords = {sub.areas[0].in_nodes[n]
                         for sub in subs for n in sub.areas[0].corners}
        assert corner_coords == inner
        for sub in subs:
            for foreign in sub.areas[0].corners.values():
                assert len(foreign) == 2

    def test_mid_edge_border_is_not_corner(self):
        subs, _ = divide(open_map(8, 4), 4, 4)
        for sub in subs:
            area = sub.areas[0]
            # two side-by-side tiles: single neighbor, no corners at all
            assert area.corners == {}

    def test_interior_node_never_corner(self):
        subs, _ = divide(open_map(4, 4), 2, 2)
        for sub in subs:
            for n in sub.areas[0].corners:
                assert n in sub.borders


class TestAreaAtoms:
    def test_out_nodes_one_step_outside(self):
        subs, _ = divide(open_map(8, 4), 4, 4)
        for sub in subs:
            area = sub.areas[0]
            for n, (x, y) in area.out_nodes.items():
                assert n not in area.in_nodes
                assert any(abs(x - ix) + abs(y - iy) == 1
                           for ix, iy in area.in_nodes.values())

    def test_adjacency_targets_in_nodes(self):
        subs, _ = divide(open_map(8, 4), 4, 4)
        for sub in subs:
            area = sub.areas[0]
            for n1, n2, d in area.adjacency:
                assert n2 in area.in_nodes
                assert n1 in area.in_nodes or n1 in area.out_nodes


class TestAssignAgents:
    def test_start_and_goal_areas(self):
        p = parse_grid("agent 1 0 0 23 23\n\n" + "\n".join(["." * 24] * 24) + "\n")
        subs, _ = divide(p, 8, 8)
        placements = assign_agents(subs, p)
        assert placements[1].area == subs[0].areas[0].id
        assert placements[1].goal_area == subs[-1].areas[0].id

    def test_goal_in_own_area(self):
        p = parse_grid("agent 1 0 0 1 1\n\n....\n....\n....\n....\n")
        subs, _ = divide(p, 4, 4)
        pl = assign_agents(subs, p)[1]
        assert pl.goal_area == pl.area

    def test_goalless_agent(self):
        p = parse_grid("agent 1 0 0\n\n..\n..\n")
        subs, _ = divide(p, 2, 2)
        pl = assign_agents(subs, p)[1]
        assert pl.goal_node is None and pl.goal_area is None


def random_obstacle_map(rng):
    w = rng.randrange(6, 20)
    h = rng.randrange(6, 20)
    cells = [(x, y) for y in range(h) for x in range(w)]
    obstacles = set(rng.sample(cells, round(0.2 * len(cells))))
    if len(obstacles) == len(cells):
        obstacles.pop()
    rows = ["".join("#" if (x, y) in cells and (x, y) in obstacles else "."
                    for x in range(w)) for y in range(h)]
    free = [c for c in cells if c not in obstacles]
    start = rng.choice(free)
    return parse_grid(f"agent 1 {start[0]} {start[1]}\n\n" + "\n".join(rows) + "\n")


class TestInvariantsRandom:
    def test_partition_invariants(self):
        rng = random.Random(7)
        for _ in range(10):
            p = random_obstacle_map(rng)
            subs, links = divide(p, rng.choice([2, 3, 4, 8]), rng.choice([2, 3, 4, 8]))
            check_partition_invariants(p, subs, links)


def check_partition_invariants(p, subs, links):
    # node partition: every node in exactly one subproblem and one area
    seen = {}
    for sub in subs:
        for area in sub.areas:
            for n in area.in_nodes:
                assert n not in seen, f"node {n} in areas {seen[n]} and {area.id}"
                seen[n] = area.id
    assert set(seen) == set(p.coords)

    areas = {a.id: a for sub in subs for a in sub.areas}
    # link symmetry and o-node soundness
    for (a1, a2), plist in links.pairs.items():
        assert a1 < a2
        for n1, n2 in plist:
            assert seen[n1] == a1 and seen[n2] == a2
            assert n2 in areas[a1].out_nodes
            assert n1 in areas[a2].out_nodes
    for aid, area in areas.items():
        for n in area.out_nodes:
            assert seen[n] != aid
    # border matching relies on this: no node lies in two border pairs of
    # one area pair
    for (a1, a2), plist in links.pairs.items():
        nodes = [n for pair in plist for n in pair]
        assert len(nodes) == len(set(nodes)), f"node in two border pairs of {(a1, a2)}"

    # area connectivity over in-node adjacency
    for area in areas.values():
        succ = area.successors()
        nodes = set(area.in_nodes)
        first = next(iter(sorted(nodes)))
        reached = {first}
        stack = [first]
        while stack:
            cur = stack.pop()
            for m in succ[cur]:
                if m in nodes and m not in reached:
                    reached.add(m)
                    stack.append(m)
        assert reached == nodes

    # id ordering across solvers
    order = [(a.solver, a.id) for sub in subs for a in sub.areas]
    assert order == sorted(order)
