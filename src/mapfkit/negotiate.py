"""Border negotiation between two linked areas, plus corner rejection.

The computing side of a pair is always the higher-id area ("host").
Outgoing candidates live in the host area and leave it; incoming candidates
live in the other area and enter the host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Coord, SolveTimeout


@dataclass
class MigrationCandidate:
    agent: int
    node: int
    coord: Coord
    tier: int                 # remaining abstract-plan hops, always >= 1
    host_side: bool           # True: resident of the host area (outgoing)
    mandatory: bool | None = None

    def to_dict(self) -> dict:
        return {"agent": self.agent, "node": self.node, "coord": list(self.coord),
                "tier": self.tier, "host_side": self.host_side}

    @staticmethod
    def from_dict(d: dict) -> "MigrationCandidate":
        return MigrationCandidate(d["agent"], d["node"], tuple(d["coord"]),
                                  d["tier"], d["host_side"])


@dataclass
class BorderAssignment:
    agent: int
    from_border: int          # node in the agent's current area
    to_border: int            # node in the destination area
    distance: int
    host_side: bool

    def to_dict(self) -> dict:
        return {"agent": self.agent, "from": self.from_border, "to": self.to_border,
                "distance": self.distance, "host_side": self.host_side}

    @staticmethod
    def from_dict(d: dict) -> "BorderAssignment":
        return BorderAssignment(d["agent"], d["from"], d["to"], d["distance"], d["host_side"])


@dataclass
class BlockedBorders:
    """Per-area, per-round corner blocks accumulated while serving pairs."""

    as_from: set[int]
    as_to: set[int]

    @staticmethod
    def empty() -> "BlockedBorders":
        return BlockedBorders(set(), set())


def build_tiers(candidates: list[MigrationCandidate]) -> list[list[MigrationCandidate]]:
    """Group by remaining plan length, longest first; host side leads a tier."""
    for c in candidates:
        if c.tier < 1:
            raise ValueError(f"candidate {c.agent} has tier {c.tier}")
    by_tier: dict[int, list[MigrationCandidate]] = {}
    for c in candidates:
        by_tier.setdefault(c.tier, []).append(c)
    tiers = []
    for t in sorted(by_tier, reverse=True):
        tiers.append(sorted(by_tier[t], key=lambda c: (not c.host_side, c.agent)))
    return tiers


def admit(tiers: list[list[MigrationCandidate]], n_ai: int, n_ao: int
          ) -> tuple[list[MigrationCandidate], int, int, int]:
    """Walk tiers, marking each side-subgroup mandatory while it fits the
    remaining capacity of its direction.  Returns (admitted, n_i, n_o, L)."""
    n_i = n_o = 0
    mandated = 0
    total_cap = max(n_ai, n_ao)
    admitted: list[MigrationCandidate] = []
    for tier in tiers:
        if n_o >= n_ao and n_i >= n_ai:
            break
        for host_side in (True, False):
            group = [c for c in tier if c.host_side == host_side]
            if not group:
                continue
            cap = (n_ao - n_o) if host_side else (n_ai - n_i)
            # both directions share one pool of border pairs, so mandatory
            # marks may not outgrow the L cap either
            mandatory = len(group) <= min(cap, total_cap - mandated)
            if mandatory:
                mandated += len(group)
            for c in group:
                c.mandatory = mandatory
                admitted.append(c)
            if host_side:
                n_o += len(group)
            else:
                n_i += len(group)
    limit = min(min(n_i, n_ai) + min(n_o, n_ao), max(n_ai, n_ao))
    return admitted, n_i, n_o, max(limit, 0)


def count_blocked(border_pairs: list[tuple[int, int]],
                  host_blocked: BlockedBorders,
                  other_blocked: BlockedBorders) -> tuple[int, int]:
    """(n_bi, n_bo) for one pair given the accumulated per-area blocks."""
    n_bi = sum(1 for h, o in border_pairs
               if h in host_blocked.as_to or o in other_blocked.as_from)
    n_bo = sum(1 for h, o in border_pairs
               if h in host_blocked.as_from or o in other_blocked.as_to)
    return n_bi, n_bo


def assign_borders(admitted: list[MigrationCandidate],
                   border_pairs: list[tuple[int, int]],
                   coords: dict[int, Coord],
                   limit: int,
                   host_blocked: BlockedBorders | None = None,
                   other_blocked: BlockedBorders | None = None,
                   deadline: float | None = None
                   ) -> list[BorderAssignment] | None:
    """Minimum-total-distance assignment of exactly `limit` candidates to
    unblocked border pairs; every mandatory candidate must be assigned.

    Distinct from-borders, distinct to-borders, no opposite-direction use of
    one border pair.  None signals infeasibility (the pair retries next round).
    Raises SolveTimeout once `deadline` (time.monotonic) has passed.
    """
    host_blocked = host_blocked or BlockedBorders.empty()
    other_blocked = other_blocked or BlockedBorders.empty()

    options: list[tuple[MigrationCandidate, list[tuple[int, int, int]]]] = []
    order = sorted(admitted, key=lambda c: (not c.mandatory, -c.tier, c.agent))
    for c in order:
        opts = []
        for h, o in border_pairs:
            if c.host_side:
                if h in host_blocked.as_from or o in other_blocked.as_to:
                    continue
                frm, to = h, o
            else:
                if h in host_blocked.as_to or o in other_blocked.as_from:
                    continue
                frm, to = o, h
            hx, hy = coords[frm]
            cx, cy = c.coord
            opts.append((frm, to, abs(cx - hx) + abs(cy - hy)))
        opts.sort(key=lambda t: (t[2], t[0]))
        options.append((c, opts))

    best: list[tuple[int, int, int, int, bool]] | None = None
    best_cost: int | None = None
    calls = 0

    # suffix data for lower-bound pruning: mandatory candidates sort first,
    # optional tails contribute their cheapest options in ascending order
    n = len(options)
    mand_cnt = [0] * (n + 1)
    mand_sum = [0] * (n + 1)
    opt_dists: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        c, opts = options[i]
        cheapest = opts[0][2] if opts else 0
        if c.mandatory:
            mand_cnt[i] = mand_cnt[i + 1] + 1
            mand_sum[i] = mand_sum[i + 1] + cheapest
            opt_dists[i] = opt_dists[i + 1]
        else:
            mand_cnt[i] = mand_cnt[i + 1]
            mand_sum[i] = mand_sum[i + 1]
            opt_dists[i] = sorted(opt_dists[i + 1] + [cheapest])

    def search(idx: int, chosen: list, cost: int,
               used_from: set[int], used_to: set[int],
               used_pair: dict[frozenset, bool]):
        nonlocal best, best_cost, calls
        calls += 1
        if calls % 64 == 0 and deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout("border assignment deadline exceeded")
        need = limit - len(chosen)
        if need < 0 or mand_cnt[idx] > need or need > n - idx:
            return
        bound = cost + mand_sum[idx] + sum(opt_dists[idx][:need - mand_cnt[idx]])
        if best_cost is not None and bound >= best_cost:
            return
        if idx == n:
            if need == 0:
                best = list(chosen)
                best_cost = cost
            return
        cand, opts = options[idx]
        for frm, to, dist in opts:
            if frm in used_from or to in used_to:
                continue
            pk = frozenset((frm, to))
            if pk in used_pair and used_pair[pk] != cand.host_side:
                continue
            used_from.add(frm)
            used_to.add(to)
            had = pk in used_pair
            if not had:
                used_pair[pk] = cand.host_side
            chosen.append((cand.agent, frm, to, dist, cand.host_side))
            search(idx + 1, chosen, cost + dist, used_from, used_to, used_pair)
            chosen.pop()
            used_from.discard(frm)
            used_to.discard(to)
            if not had:
                del used_pair[pk]
        if not cand.mandatory:
            search(idx + 1, chosen, cost, used_from, used_to, used_pair)

    search(0, [], 0, set(), set(), {})
    if best is None:
        return None
    return sorted((BorderAssignment(a, f, t, d, hs) for a, f, t, d, hs in best),
                  key=lambda b: b.agent)


def block_corners(assignments: list[BorderAssignment],
                  host_corners: dict[int, frozenset[int]],
                  host_blocked: BlockedBorders) -> None:
    """After a pair is served, exclude its corner nodes from later pairs in
    the same round (from-side for outgoing, to-side for incoming)."""
    for b in assignments:
        if b.host_side:
            if b.from_border in host_corners:
                host_blocked.as_from.add(b.from_border)
        else:
            if b.to_border in host_corners:
                host_blocked.as_to.add(b.to_border)


@dataclass(frozen=True)
class IncomingRecord:
    """One assignment sending an agent into a given host area."""

    agent: int
    to_border: int
    origin_area: int
    computed_by: int      # solver that ran the assignment search


def detect_rejections(records: list[IncomingRecord], host_solver: int) -> set[int]:
    """Agents whose incoming assignment collides at a shared target node.

    The host keeps the assignment it computed itself; remotely computed ones
    lose.  With no local contender the lowest computing solver wins.
    """
    by_node: dict[int, list[IncomingRecord]] = {}
    for r in records:
        by_node.setdefault(r.to_border, []).append(r)
    rejected: set[int] = set()
    for node, recs in by_node.items():
        if len(recs) < 2:
            continue
        keep = min(recs, key=lambda r: (r.computed_by != host_solver, r.computed_by, r.agent))
        for r in recs:
            if r is not keep:
                rejected.add(r.agent)
    return rejected
