"""Per-area bounded-horizon movement planning.

Conflict-based search bounded by a horizon: each agent gets a shortest
constrained space-time path, and a constraint tree resolves vertex and swap
conflicts pairwise.  While the search runs in shortest-first order the first
conflict-free node has minimal plan length; when it outgrows its node limit,
a search over agent priority orders takes over and may return a longer plan.
Both searches are bounded by node counts, so a plan depends only on the input;
the wall clock is read only to honour the caller's global deadline.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

from .model import SolveTimeout
from .partition import Area

# Node limits of the two searches, so that a plan depends on the input alone.
# On the Criterion-2 matrix a conflict-based search that succeeds expands at
# most 356 nodes, and a priority search that succeeds pops at most 55.
CBS_NODE_LIMIT = 512
PRIORITY_NODE_LIMIT = 256


@dataclass
class AreaInstance:
    """Snapshot of one area for one round."""

    area: Area
    round: int
    residents: dict[int, int]            # agent -> current in-node
    incoming: dict[int, int] = field(default_factory=dict)   # agent -> entry out-node
    outgoing: dict[int, int] = field(default_factory=dict)   # agent -> exit border (in-node here)
    plan_goals: dict[int, int] = field(default_factory=dict)
    reserved: set[int] = field(default_factory=set)          # next-round migration targets
    crowding_enforced: bool = True

    def all_agents(self) -> dict[int, int]:
        pos = dict(self.residents)
        pos.update(self.incoming)
        return pos


@dataclass
class MovementPlan:
    steps: dict[int, list[int]]        # agent -> node per local time 0..length
    length: int


def horizon(n_a: int, sensitivity: float) -> int:
    """Maximum local plan length tried before relaxing goals."""
    if n_a < 1 or sensitivity <= 0:
        raise ValueError("need n_a >= 1 and positive sensitivity")
    return int((math.sqrt(n_a) + 1) * 2.0 * sensitivity)


def crowding_guard(n_a: int, n_r: int, n_i: int, n_f: int) -> bool:
    """Whether reserved-node constraints may be enforced: the area needs at
    least n_f free nodes after counting current and arriving robots."""
    return n_a - n_r - n_i >= n_f


def _distances(area: Area) -> dict[int, dict[int, int]]:
    """dist[goal][node]: steps to reach an in-node goal from any node."""
    preds: dict[int, list[int]] = {n: [] for n in area.in_nodes}
    for n in area.out_nodes:
        preds.setdefault(n, [])
    for n1, n2, _ in area.adjacency:
        preds[n2].append(n1)
    dist: dict[int, dict[int, int]] = {}
    for g in area.in_nodes:
        d = {g: 0}
        q = deque([g])
        while q:
            cur = q.popleft()
            for m in preds[cur]:
                if m not in d:
                    d[m] = d[cur] + 1
                    q.append(m)
        dist[g] = d
    return dist


def plan_movements(inst: AreaInstance, h_m: int,
                   deadline: float | None = None) -> MovementPlan | None:
    """Find the shortest feasible local plan with length at most h_m.

    Constraints: moves follow area adjacency; one agent per in-node per step;
    no swaps; incoming agents enter the area at step 1; agents with a plan
    goal finish on it; with crowding enforced, nobody rests on a reserved
    node at the final step unless it is their own goal.
    """
    area = inst.area
    succ = area.successors()
    dist = _distances(area)
    agents = sorted(inst.all_agents())
    if not agents:
        return MovementPlan({}, 0)
    start = {a: inst.all_agents()[a] for a in agents}
    goals = dict(inst.plan_goals)
    reserved = inst.reserved if inst.crowding_enforced else set()
    incoming = set(inst.incoming)

    if len(set(goals.values())) < len(goals):
        return None            # two agents target the same final node

    for a in agents:
        g = goals.get(a)
        if g is not None and dist[g].get(start[a]) is None:
            return None            # goal unreachable inside the area

    exits = set(area.out_nodes)
    resting_banned = exits | reserved

    def joint_exact() -> MovementPlan | None:
        """Breadth-first search over the joint state of all agents.  Only
        viable for a handful of agents, but complete: None is a proof that
        no plan fits the horizon, and a found plan has minimal length."""
        import itertools
        start_state = tuple(start[a] for a in agents)
        parent: dict[tuple, tuple | None] = {start_state: None}

        def settled(state: tuple, t: int) -> bool:
            if t == 0 and incoming:
                return False
            for a, n in zip(agents, state):
                g = goals.get(a)
                if g is not None:
                    if n != g:
                        return False
                elif n in resting_banned:
                    return False
            return True

        frontier = [start_state]
        for t in range(h_m + 1):
            for state in frontier:
                if settled(state, t):
                    chain = [state]
                    while parent[chain[-1]] is not None:
                        chain.append(parent[chain[-1]])
                    chain.reverse()
                    steps = {a: [s[i] for s in chain]
                             for i, a in enumerate(agents)}
                    return MovementPlan(steps, len(chain) - 1)
            if t == h_m:
                break
            nxt = []
            for state in frontier:
                per_agent = []
                for i, a in enumerate(agents):
                    opts = list(succ.get(state[i], ()))
                    if not (t == 0 and a in incoming):
                        opts.append(state[i])
                    per_agent.append(opts)
                for combo in itertools.product(*per_agent):
                    if len(set(combo)) < len(combo) or combo in parent:
                        continue
                    if any(state[i] != state[j] and combo[i] == state[j]
                           and combo[j] == state[i]
                           for i in range(len(combo))
                           for j in range(i + 1, len(combo))):
                        continue
                    parent[combo] = state
                    nxt.append(combo)
            frontier = nxt
            if not frontier:
                break
        return None

    if len(agents) <= 3 and len(area.in_nodes) <= 12:
        return joint_exact()

    def make_cat(paths: list[list[int]]):
        """Conflict-avoidance table: how often other agents occupy a node or
        traverse an edge at each time, counting their resting tail."""
        cat_t = max((len(p) for p in paths), default=1) - 1
        cat_v: dict[tuple[int, int], int] = {}
        cat_e: dict[tuple[int, int, int], int] = {}
        for p in paths:
            for t in range(cat_t + 1):
                node = p[min(t, len(p) - 1)]
                cat_v[(t, node)] = cat_v.get((t, node), 0) + 1
                if 0 < t < len(p):
                    key = (t, p[t], p[t - 1])
                    cat_e[key] = cat_e.get(key, 0) + 1
        return cat_v, cat_e, cat_t

    def low_level(a: int, cons_v: frozenset, cons_e: frozenset, cat
                  ) -> list[int] | None:
        """Shortest constrained path for one agent; it rests at the final
        node afterwards, so no vertex constraint may touch that node later.
        Length is the cost, overlaps with the avoidance table break ties."""
        s0 = start[a]
        g = goals.get(a)
        cat_v, cat_e, cat_t = cat
        blocked_after = {}
        for t, v in cons_v:
            blocked_after[v] = max(blocked_after.get(v, -1), t)

        def rest_ok(node: int, t: int) -> bool:
            if g is not None:
                return node == g and blocked_after.get(node, -1) < t
            return node not in resting_banned and blocked_after.get(node, -1) < t

        hd = (lambda v: dist[g].get(v)) if g is not None else (lambda v: 0)
        import heapq
        h0 = hd(s0)
        if h0 is None:
            return None
        came: dict[tuple[int, int], tuple[int, int] | None] = {(0, s0): None}
        heap = [(h0, 0, 0, 0, s0, False)]
        while heap:
            f, nc, _, t, node, finished = heapq.heappop(heap)
            if finished:
                path = []
                cur = (t, node)
                while cur is not None:
                    path.append(cur[1])
                    cur = came[cur]
                path.reverse()
                return path
            if rest_ok(node, t) and (t > 0 or (0, node) not in cons_v) \
                    and not (t == 0 and a in incoming):
                rest = sum(cat_v.get((u, node), 0) for u in range(t + 1, cat_t + 1))
                heapq.heappush(heap, (f, nc + rest, 1, t, node, True))
            if t == h_m:
                continue
            moves = succ.get(node, ())
            cand = list(moves) if (t == 0 and a in incoming) else [node] + list(moves)
            for m in cand:
                hm2 = hd(m)
                if hm2 is None or t + 1 + hm2 > h_m:
                    continue
                if (t + 1, m) in cons_v or (t + 1, node, m) in cons_e:
                    continue
                if (t + 1, m) in came:
                    continue
                came[(t + 1, m)] = (t, node)
                bump = cat_v.get((t + 1, m), 0) + cat_e.get((t + 1, node, m), 0)
                heapq.heappush(heap, (t + 1 + hm2, nc + bump, 0, t + 1, m, False))
        return None

    def at(path: list[int], t: int) -> int:
        return path[min(t, len(path) - 1)]

    def first_conflict(paths: dict[int, list[int]]):
        total = max(len(p) for p in paths.values()) - 1
        padded = {a: [p[min(t, len(p) - 1)] for t in range(total + 1)]
                  for a, p in paths.items()}
        count = 0
        first = None
        fkey = None
        for t in range(total + 1):
            occ: dict[int, int] = {}
            for a in agents:
                n = padded[a][t]
                if n in occ:
                    count += 1
                    key = (occ[n], a, t)
                    if fkey is None or key < fkey:
                        fkey = key
                        first = ("vertex", occ[n], a, t, n, n)
                else:
                    occ[n] = a
            if t:
                movemap: dict[tuple[int, int], int] = {}
                for a in agents:
                    x, y = padded[a][t - 1], padded[a][t]
                    if x != y:
                        movemap[(x, y)] = a
                for (x, y), a in movemap.items():
                    b = movemap.get((y, x))
                    if b is not None and a < b:
                        count += 1
                        key = (a, b, t)
                        if fkey is None or key < fkey:
                            fkey = key
                            first = ("edge", a, b, t, y, x)
        return first, count

    # conflict-based search: replan one agent per tree node under an extra
    # vertex or edge ban; the search ends at the first node whose padded paths
    # are conflict free.  Node cost is the longest path, so that node has a
    # minimal T.
    import heapq
    empty = frozenset()
    base_v = {a: empty for a in agents}
    base_e = {a: empty for a in agents}
    paths0: dict[int, list[int]] = {}
    for a in agents:
        got = low_level(a, empty, empty, make_cat(list(paths0.values())))
        if got is None:
            return None
        paths0[a] = got
    first0, count0 = first_conflict(paths0)

    def run_tree() -> MovementPlan | str | None:
        """The optimal search: a plan, "limit" when CBS_NODE_LIMIT nodes did
        not settle it, or None when the exhausted tree proves no plan fits."""
        counter = 0
        tree = [(max(len(p) for p in paths0.values()) - 1, count0, 0,
                 paths0, base_v, base_e, first0)]
        expanded = 0
        while tree:
            expanded += 1
            if expanded > CBS_NODE_LIMIT:
                return "limit"
            if expanded % 64 == 0 and deadline is not None \
                    and time.monotonic() > deadline:
                raise SolveTimeout("movement planning deadline exceeded")
            cost, count, _, paths, cons_v, cons_e, conflict = heapq.heappop(tree)
            if conflict is None:
                steps = {a: p + [p[-1]] * (cost + 1 - len(p))
                         for a, p in paths.items()}
                return MovementPlan(steps, cost)
            kind, a, b, t, na, nb = conflict
            children = []
            bypass = None
            for agent, node in ((a, na), (b, nb)):
                nv, ne = cons_v[agent], cons_e[agent]
                if kind == "vertex":
                    nv = nv | {(t, node)}
                else:
                    ne = ne | {(t, at(paths[agent], t - 1), node)}
                cat = make_cat([p for x, p in paths.items() if x != agent])
                got = low_level(agent, nv, ne, cat)
                if got is None:
                    continue
                np = dict(paths)
                np[agent] = got
                nfirst, ncount = first_conflict(np)
                ncost = max(len(p) for p in np.values()) - 1
                # bypass: a same-cost path that sheds conflicts replaces the
                # current node's plan without adding the new constraint
                if ncost <= cost and ncount < count and bypass is None:
                    bypass = (ncost, ncount, np, nfirst)
                    break
                children.append((agent, nv, ne, np, nfirst, ncount, ncost))
            if bypass is not None:
                ncost, ncount, np, nfirst = bypass
                counter += 1
                heapq.heappush(tree, (ncost, ncount, counter, np,
                                      cons_v, cons_e, nfirst))
                continue
            for agent, nv, ne, np, nfirst, ncount, ncost in children:
                ncv = dict(cons_v)
                nce = dict(cons_e)
                ncv[agent], nce[agent] = nv, ne
                counter += 1
                heapq.heappush(tree, (ncost, ncount, counter,
                                      np, ncv, nce, nfirst))
        return None

    def priority_search() -> MovementPlan | None:
        """Branch on pairwise agent priorities instead of single bans: on a
        conflict between two agents, try each one yielding to the other and
        replan the loser around everything ranked above it.  Scales much
        better than the optimal search on crowded instances, at the price
        of possibly longer plans.  Gives up after PRIORITY_NODE_LIMIT pops."""

        def above(pri: dict[int, frozenset], a: int) -> set[int]:
            out: set[int] = set()
            stack = [a]
            while stack:
                for h in pri[stack.pop()]:
                    if h not in out:
                        out.add(h)
                        stack.append(h)
            return out

        def hard(paths: dict[int, list[int]], who: set[int]):
            cv: set[tuple[int, int]] = set()
            ce: set[tuple[int, int, int]] = set()
            for x in who:
                p = paths[x]
                for t in range(1, h_m + 1):
                    cv.add((t, p[min(t, len(p) - 1)]))
                    if t < len(p) and p[t] != p[t - 1]:
                        ce.add((t, p[t], p[t - 1]))
            return frozenset(cv), frozenset(ce)

        stack = [({a: frozenset() for a in agents}, paths0, first0)]
        popped = 0
        while stack:
            popped += 1
            if popped > PRIORITY_NODE_LIMIT:
                return None
            if deadline is not None and time.monotonic() > deadline:
                raise SolveTimeout("movement planning deadline exceeded")
            pri, paths, conflict = stack.pop()
            if conflict is None:
                cost = max(len(p) for p in paths.values()) - 1
                steps = {a: p + [p[-1]] * (cost + 1 - len(p))
                         for a, p in paths.items()}
                return MovementPlan(steps, cost)
            _, a, b, _, _, _ = conflict
            children = []
            for winner, loser in ((a, b), (b, a)):
                if loser in above(pri, winner):
                    continue        # would close a priority cycle
                npri = dict(pri)
                npri[loser] = pri[loser] | {winner}
                higher = above(npri, loser)
                cv, ce = hard(paths, higher)
                cat = make_cat([p for x, p in paths.items()
                                if x != loser and x not in higher])
                got = low_level(loser, cv, ce, cat)
                if got is None:
                    continue
                np = dict(paths)
                np[loser] = got
                nfirst, ncount = first_conflict(np)
                children.append((ncount, npri, np, nfirst))
            # depth first, least-conflicted child explored first
            children.sort(key=lambda c: -c[0])
            for _, npri, np, nfirst in children:
                stack.append((npri, np, nfirst))
        return None

    # minimal-length order first; if the optimality proof outgrows its node
    # limit, fall back to a search over agent priority orders.  The fallback
    # stays sound but may overshoot the minimal length; exhausting it reports
    # failure so the caller can relax migration goals instead.
    got = run_tree()
    if got == "limit":
        got = priority_search()
    return got


def check_plan(inst: AreaInstance, plan: MovementPlan) -> list[str]:
    """Restate the planning constraints over a finished plan; [] means valid."""
    area = inst.area
    succ = area.successors()
    problems = []
    agents = inst.all_agents()
    reserved = inst.reserved if inst.crowding_enforced else set()
    for a, node in agents.items():
        path = plan.steps.get(a)
        if path is None or len(path) != plan.length + 1:
            problems.append(f"agent {a}: missing or wrong-length path")
            continue
        if path[0] != node:
            problems.append(f"agent {a}: wrong start {path[0]}")
        for t in range(plan.length):
            if path[t + 1] != path[t] and path[t + 1] not in succ[path[t]]:
                problems.append(f"agent {a}: illegal move {path[t]}->{path[t + 1]} at {t + 1}")
        for t in range(1, plan.length + 1):
            if path[t] in area.out_nodes:
                problems.append(f"agent {a}: on out-node {path[t]} at {t}")
        if a in inst.incoming and plan.length >= 1 and path[1] not in area.in_nodes:
            problems.append(f"agent {a}: did not enter the area at step 1")
        g = inst.plan_goals.get(a)
        if g is not None and path[-1] != g:
            problems.append(f"agent {a}: finished at {path[-1]}, goal {g}")
        if g is None and path[-1] in reserved:
            problems.append(f"agent {a}: rests on reserved node {path[-1]}")
    for t in range(plan.length + 1):
        occ: dict[int, int] = {}
        for a in agents:
            node = plan.steps[a][t]
            if node in area.in_nodes and node in occ:
                problems.append(f"vertex conflict at {node}, t={t} ({occ[node]},{a})")
            occ[node] = a
    ags = sorted(agents)
    for t in range(plan.length):
        for i, a in enumerate(ags):
            for b in ags[i + 1:]:
                pa, pb = plan.steps[a], plan.steps[b]
                if pa[t] != pb[t] and pa[t + 1] == pb[t] and pb[t + 1] == pa[t]:
                    problems.append(f"swap conflict {a}/{b} at t={t + 1}")
    return problems


def relax_and_retry(inst: AreaInstance, h_m: int, deadline: float | None = None
                    ) -> tuple[MovementPlan | None, list[int]]:
    """Strip migration goals one agent at a time (farthest from its border
    first) while no plan exists.  Returns (plan or None, stripped agents)."""
    coords = dict(inst.area.in_nodes)
    coords.update(inst.area.out_nodes)
    stripped: list[int] = []
    while True:
        plan = plan_movements(inst, h_m, deadline)
        if plan is not None:
            return plan, stripped
        candidates = [a for a in inst.outgoing if a in inst.plan_goals]
        if not candidates:
            return None, stripped
        def far(a):
            ax, ay = coords[inst.all_agents()[a]]
            bx, by = coords[inst.outgoing[a]]
            return (-(abs(ax - bx) + abs(ay - by)), a)
        victim = min(candidates, key=far)
        del inst.plan_goals[victim]
        del inst.outgoing[victim]
        stripped.append(victim)
