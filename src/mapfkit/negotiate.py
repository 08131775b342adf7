"""Border negotiation between two linked areas, plus corner rejection.

The computing side of a pair is always the higher-id area ("host").
Outgoing candidates live in the host area and leave it; incoming candidates
live in the other area and enter the host.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Coord


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
                   other_blocked: BlockedBorders | None = None
                   ) -> list[BorderAssignment] | None:
    """Minimum-total-distance assignment of exactly `limit` candidates to
    unblocked border pairs; every mandatory candidate must be assigned.

    Every border node lies in exactly one border pair of its area pair, so
    distinct from-borders, distinct to-borders and no opposite-direction use
    of one border pair all mean "each border pair is used at most once": a
    min-cost bipartite matching, grown by successive shortest paths.  Equal
    totals go to the lexicographically first choice over the candidates in
    `order`, each preferring its options by (distance, from-border) and
    being left out last.  None signals infeasibility (the pair retries next
    round).
    """
    host_blocked = host_blocked or BlockedBorders.empty()
    other_blocked = other_blocked or BlockedBorders.empty()

    order = sorted(admitted, key=lambda c: (not c.mandatory, -c.tier, c.agent))
    options: list[dict[int, tuple[int, int, int]]] = []   # pair -> (from, to, distance)
    for c in order:
        opts = {}
        for k, (h, o) in enumerate(border_pairs):
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
            opts[k] = (frm, to, abs(cx - hx) + abs(cy - hy))
        options.append(opts)

    # One integer cost per option, by priority: a penalty for an optional
    # candidate, the distance, then the option's rank as one digit of a
    # mixed-radix number over `order`.  Ranks are shifted so that leaving a
    # candidate out costs 0, the last rank.  Distinct matchings then have
    # distinct costs, and the unique optimum is the tie-break above.
    n = len(order)
    weight = [0] * n
    unit = 1
    for i in range(n - 1, -1, -1):
        weight[i] = unit
        unit *= len(options[i]) + 1
    penalty = unit * (1 + sum(max((d for *_, d in o.values()), default=0) for o in options))
    cost: list[dict[int, int]] = []
    for i, c in enumerate(order):
        ranked = sorted(options[i], key=lambda k: (options[i][k][2], options[i][k][0]))
        cost.append({k: (0 if c.mandatory else penalty) + options[i][k][2] * unit
                     + (r - len(ranked)) * weight[i] for r, k in enumerate(ranked)})

    match: list[int | None] = [None] * n      # candidate -> border pair
    owner: dict[int, int] = {}                # border pair -> candidate
    for _ in range(limit):
        # Bellman-Ford over the residual graph: free candidates start at 0,
        # a candidate reaches its unmatched options, a matched pair leads
        # back to its candidate at minus that option's cost
        to_cand: dict[int, tuple[int, int | None]] = {i: (0, None) for i in range(n)
                                                      if match[i] is None}
        to_pair: dict[int, tuple[int, int]] = {}
        changed = True
        while changed:
            changed = False
            for i, (d, _) in list(to_cand.items()):
                for k, w in cost[i].items():
                    if k != match[i] and (k not in to_pair or d + w < to_pair[k][0]):
                        to_pair[k] = (d + w, i)
                        changed = True
            for k, (d, _) in to_pair.items():
                j = owner.get(k)
                if j is not None and (j not in to_cand or d - cost[j][k] < to_cand[j][0]):
                    to_cand[j] = (d - cost[j][k], k)
                    changed = True
        free = [k for k in to_pair if k not in owner]
        if not free:
            return None
        k = min(free, key=lambda k: to_pair[k][0])
        while k is not None:
            i = to_pair[k][1]
            match[i], owner[k] = k, i
            k = to_cand[i][1]

    if any(c.mandatory and match[i] is None for i, c in enumerate(order)):
        return None
    return sorted((BorderAssignment(c.agent, *options[i][match[i]], c.host_side)
                   for i, c in enumerate(order) if match[i] is not None),
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
