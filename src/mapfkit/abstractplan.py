"""Abstract planning: shortest area sequences over the link graph."""

from __future__ import annotations

from collections import deque

from .partition import AgentPlacement, LinkGraph


class UnsolvableError(RuntimeError):
    """Some agent's goal area cannot be reached over the link graph."""


def abstract_plan(links: LinkGraph, start_area: int, goal_area: int,
                  h_a: int | None = None) -> list[int] | None:
    """Shortest sequence of linked areas from start_area to goal_area,
    inclusive on both ends.  Ties break toward the smallest next area id.
    Returns None when the goal area is unreachable (or farther than h_a hops).
    """
    known = set(links.areas())
    known.add(start_area)
    known.add(goal_area)
    if h_a is None:
        h_a = len(known)
    if start_area == goal_area:
        return [start_area]
    adj: dict[int, list[int]] = {a: [] for a in known}
    for a1, a2 in links.pairs:
        adj.setdefault(a1, []).append(a2)
        adj.setdefault(a2, []).append(a1)
    if start_area not in adj or goal_area not in adj:
        raise UnsolvableError(f"unknown area in plan request ({start_area}, {goal_area})")
    # distance-to-goal labels, then step to the smallest-id closer neighbour
    dist = {goal_area: 0}
    q = deque([goal_area])
    while q:
        cur = q.popleft()
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                q.append(nxt)
    if start_area not in dist or dist[start_area] > h_a:
        return None
    path = [start_area]
    cur = start_area
    while cur != goal_area:
        cur = min(n for n in adj[cur] if dist.get(n) == dist[cur] - 1)
        path.append(cur)
    return path


def plan_all(placements: dict[int, AgentPlacement], links: LinkGraph,
             h_a: int | None = None) -> dict[int, list[int]]:
    """Abstract plans for every agent; goal-less agents get length-0 plans.

    Raises UnsolvableError if any single agent cannot reach its goal area.
    """
    plans: dict[int, list[int]] = {}
    for agent in sorted(placements):
        pl = placements[agent]
        if pl.goal_area is None:
            plans[agent] = [pl.area]
            continue
        path = abstract_plan(links, pl.area, pl.goal_area, h_a)
        if path is None:
            raise UnsolvableError(
                f"agent {agent}: area {pl.goal_area} unreachable from area {pl.area}")
        plans[agent] = path
    return plans
