"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written from scratch with brute force or
plain BFS, sharing no search code with the package under test.
"""

from __future__ import annotations

import itertools
from collections import deque

from mapfkit.motion import AreaInstance


def joint_bfs(inst: AreaInstance, h_m: int) -> int | None:
    """Minimal local plan length by BFS over the joint agent state space.

    Mirrors the planning constraints: adjacency moves or waits, one agent per
    node, no swaps, incoming agents leave their entry out-node at step 1,
    goal agents finish on their goals, and (when crowding is enforced)
    goal-less agents do not end on a reserved node.
    """
    area = inst.area
    succ = area.successors()
    agents = sorted(inst.all_agents())
    start = tuple(inst.all_agents()[a] for a in agents)
    goals = inst.plan_goals
    reserved = inst.reserved if inst.crowding_enforced else set()
    incoming = set(inst.incoming)
    exits = set(area.out_nodes)

    def done(state: tuple, t: int) -> bool:
        if t == 0 and incoming:
            return False
        for a, n in zip(agents, state):
            g = goals.get(a)
            if g is not None:
                if n != g:
                    return False
            elif n in reserved or n in exits:
                return False
        return True

    frontier = {start}
    seen = {start}
    for t in range(h_m + 1):
        for state in frontier:
            if done(state, t):
                return t
        if t == h_m:
            break
        nxt: set[tuple] = set()
        for state in frontier:
            per_agent = []
            for i, a in enumerate(agents):
                n = state[i]
                opts = list(succ.get(n, []))
                if not (t == 0 and a in incoming):
                    opts.append(n)
                per_agent.append(opts)
            for combo in itertools.product(*per_agent):
                if len(set(combo)) < len(combo):
                    continue
                swap = False
                for i in range(len(combo)):
                    for j in range(i + 1, len(combo)):
                        if state[i] != state[j] and combo[i] == state[j] \
                                and combo[j] == state[i]:
                            swap = True
                if swap:
                    continue
                if combo not in seen:
                    seen.add(combo)
                    nxt.add(combo)
        frontier = nxt
        if not frontier:
            break
    return None


def brute_force_assignment(candidates, border_pairs, coords, limit,
                           host_blocked=(set(), set()), other_blocked=(set(), set())):
    """Minimum-total-distance assignment by full enumeration.

    candidates: list of (agent, coord, host_side, mandatory).
    border_pairs: list of (host node, other node).
    host_blocked, other_blocked: (nodes blocked as from-border, nodes blocked
    as to-border) of the host area and of the other area; each node is
    checked against the sets of the area it lies in.
    Returns the best total distance, or None when infeasible.
    """
    n = len(candidates)
    best = None
    for subset in itertools.combinations(range(n), min(limit, n)):
        if len(subset) != limit:
            continue
        if any(candidates[i][3] and i not in subset for i in range(n)):
            continue
        for pairs in itertools.permutations(range(len(border_pairs)), limit):
            used_dir: dict[int, bool] = {}
            froms, tos = set(), set()
            total = 0
            ok = True
            for ci, pi in zip(subset, pairs):
                agent, coord, host_side, _m = candidates[ci]
                h, o = border_pairs[pi]
                frm, to = (h, o) if host_side else (o, h)
                from_area, to_area = ((host_blocked, other_blocked) if host_side
                                      else (other_blocked, host_blocked))
                if frm in from_area[0] or to in to_area[1]:
                    ok = False
                    break
                if frm in froms or to in tos:
                    ok = False
                    break
                if pi in used_dir and used_dir[pi] != host_side:
                    ok = False
                    break
                used_dir[pi] = host_side
                froms.add(frm)
                tos.add(to)
                hx, hy = coords[frm]
                cx, cy = coord
                total += abs(cx - hx) + abs(cy - hy)
            if ok and (best is None or total < best):
                best = total
    return best


def link_bfs(pairs: dict, start: int, goal: int) -> int | None:
    """Hop count between two areas over the raw link-pair dictionary."""
    if start == goal:
        return 0
    adj: dict[int, set[int]] = {}
    for a1, a2 in pairs:
        adj.setdefault(a1, set()).add(a2)
        adj.setdefault(a2, set()).add(a1)
    dist = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                if nxt == goal:
                    return dist[nxt]
                q.append(nxt)
    return dist.get(goal)
