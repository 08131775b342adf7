"""Solver workers: per-round negotiate/reject/plan/confirm over a transport,
barrier synchronization, and aggregation of partial plans."""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field

from . import negotiate as ng
from .abstractplan import UnsolvableError, abstract_plan
from .model import GlobalSolution, Problem, SolveTimeout, validate
from .motion import (AreaInstance, MovementPlan, check_plan, crowding_guard,
                     horizon, relax_and_retry)
from .partition import LinkGraph, Subproblem, assign_agents, divide
from .transport import (AbortSignal, Endpoint, InprocBus, Trace,
                        TransportTimeout, make_frame)

Pair = tuple[int, int]   # (lower area id, higher area id)


@dataclass
class RunConfig:
    dx: int = 8
    dy: int = 8
    sensitivity: float = 2.0       # horizon factor F
    free_threshold: int = 4        # crowding guard n_f
    timeout: float = 180.0
    max_rounds: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return RunConfig(**d)


@dataclass
class AgentState:
    agent: int
    node: int
    goal_node: int | None
    goal_area: int | None
    remaining: list[int]           # areas still to enter, in order
    area: int
    entering: bool = False         # sits on an out-node, enters this round

    def has_work(self) -> bool:
        if self.goal_node is None:
            return False
        return self.node != self.goal_node or bool(self.remaining)


def determine_tasks(track: dict[int, dict], area_owner: dict[int, int]):
    """Identical on every worker: Active set plus per-worker Send/Recv/local
    pair lists and the set of areas touched by pending migrations."""
    pairs: set[Pair] = set()
    for body in track.values():
        for _agent, cur, nxt in body["pending"]:
            pairs.add((min(cur, nxt), max(cur, nxt)))
    active = {w for w, body in track.items() if body["has_work"]}
    send: dict[int, list[Pair]] = {}
    recv: dict[int, list[Pair]] = {}
    local: dict[int, list[Pair]] = {}
    for lo, hi in sorted(pairs):
        u, v = area_owner[lo], area_owner[hi]
        active.add(u)
        active.add(v)
        if u == v:
            local.setdefault(u, []).append((lo, hi))
        else:
            send.setdefault(u, []).append((lo, hi))
            recv.setdefault(v, []).append((lo, hi))
    touched = {a for pr in pairs for a in pr}
    return active, send, recv, local, touched


def stitch(plans: dict[tuple[int, int], dict[int, list[int]]],
           starts: dict[int, int]) -> dict[int, list[int]]:
    """Concatenate per-round area plans into global paths.  Each round lasts
    as long as its longest local plan; everyone else pads with waits."""
    if not plans:
        return {a: [n] for a, n in starts.items()}
    rounds = max(r for r, _ in plans) + 1
    pos = dict(starts)
    paths = {a: [n] for a, n in starts.items()}
    for r in range(rounds):
        seg: dict[int, list[int]] = {}
        t_r = 0
        for (rr, _area), steps in plans.items():
            if rr != r:
                continue
            for agent, p in steps.items():
                seg[agent] = p
                t_r = max(t_r, len(p) - 1)
        for a in paths:
            p = seg.get(a)
            if p is not None:
                if p[0] != pos[a]:
                    raise RuntimeError(f"discontinuous path for agent {a} at round {r}")
                ext = p[1:] + [p[-1]] * (t_r - (len(p) - 1))
            else:
                ext = [pos[a]] * t_r
            paths[a].extend(ext)
            pos[a] = paths[a][-1]
    return paths


@dataclass
class WorkerResult:
    status: str                    # solved | unsolvable | timeout | failed
    reason: str = ""
    paths: dict[int, list[int]] | None = None
    rounds: int = 0


class Worker:
    """One solver: owns a subproblem, runs the round protocol, and (if it has
    the smallest id) aggregates everyone's partial plans."""

    def __init__(self, wid: int, sub: Subproblem, links: LinkGraph,
                 area_owner: dict[int, int], worker_ids: list[int],
                 agents: list[AgentState], config: RunConfig,
                 endpoint: Endpoint, deadline: float):
        self.wid = wid
        self.sub = sub
        self.links = links
        self.area_owner = area_owner
        self.worker_ids = sorted(worker_ids)
        self.agents: dict[int, AgentState] = {a.agent: a for a in agents}
        self.initial_positions = {a.agent: a.node for a in agents}
        self.config = config
        self.ep = endpoint
        self.deadline = deadline
        self.areas = {ar.id: ar for ar in sub.areas}
        self.total_areas = len(area_owner)
        self.plans: dict[tuple[int, int], MovementPlan] = {}
        self.round_cap = config.max_rounds
        self.rounds = 0
        # per-round protocol state
        self.blocked: dict[int, ng.BlockedBorders] = {}
        self.pair_assignments: dict[Pair, list[ng.BorderAssignment]] = {}
        self.my_assigned: dict[int, tuple[Pair, ng.BorderAssignment]] = {}

    # -- helpers ------------------------------------------------------------

    def _wait(self) -> float:
        rem = self.deadline - time.monotonic()
        if rem <= 0:
            raise SolveTimeout("solve timeout exceeded")
        return rem

    def _coord(self, node: int):
        for ar in self.areas.values():
            if node in ar.in_nodes:
                return ar.in_nodes[node]
            if node in ar.out_nodes:
                return ar.out_nodes[node]
        raise KeyError(node)

    # -- setup --------------------------------------------------------------

    def _plan_abstract(self) -> None:
        for agent in sorted(self.agents):
            st = self.agents[agent]
            if st.goal_area is None:
                st.remaining = []
                continue
            path = abstract_plan(self.links, st.area, st.goal_area, self.total_areas)
            if path is None:
                raise UnsolvableError(
                    f"agent {agent}: area {st.goal_area} unreachable from {st.area}")
            st.remaining = path[1:]

    # -- barrier ------------------------------------------------------------

    def _track_body(self) -> dict:
        pending = []
        for agent in sorted(self.agents):
            st = self.agents[agent]
            if st.remaining:
                pending.append([agent, st.area, st.remaining[0]])
        return {
            "has_work": any(st.has_work() for st in self.agents.values()),
            "pending": pending,
            "max_plan": max((len(st.remaining) for st in self.agents.values()), default=0),
        }

    def _barrier(self, rnd: int):
        self.ep.broadcast(make_frame("track", self.wid, None, rnd, self._track_body()))
        bodies: dict[int, dict] = {}
        while len(bodies) < len(self.worker_ids):
            f = yield (lambda fr: fr["kind"] == "track" and fr["round"] == rnd
                       and fr["from"] not in bodies)
            bodies[f["from"]] = f["body"]
        return bodies

    # -- migration phases ---------------------------------------------------

    def _candidates(self, in_area: int, to_area: int, host_side: bool
                    ) -> list[ng.MigrationCandidate]:
        out = []
        for agent in sorted(self.agents):
            st = self.agents[agent]
            if st.area == in_area and st.remaining and st.remaining[0] == to_area:
                out.append(ng.MigrationCandidate(agent, st.node, self._coord(st.node),
                                                 len(st.remaining), host_side))
        return out

    def _compute_pair(self, pair: Pair, remote_candidates: list[ng.MigrationCandidate] | None,
                      remote_blocked: ng.BlockedBorders | None = None
                      ) -> list[ng.BorderAssignment]:
        lo, hi = pair
        host = self.areas[hi]
        cands = self._candidates(hi, lo, host_side=True)
        if remote_candidates is None:
            cands += self._candidates(lo, hi, host_side=False)
        else:
            cands += remote_candidates
        border_pairs = self.links.border_pairs(hi, lo)      # (host node, other node)
        host_blocked = self.blocked.setdefault(hi, ng.BlockedBorders.empty())
        if remote_blocked is not None:
            other_blocked = remote_blocked
        elif self.area_owner[lo] == self.wid:
            other_blocked = self.blocked.setdefault(lo, ng.BlockedBorders.empty())
        else:
            other_blocked = ng.BlockedBorders.empty()
        n_l = len(border_pairs)
        n_bi, n_bo = ng.count_blocked(border_pairs, host_blocked, other_blocked)
        tiers = ng.build_tiers(cands)
        admitted, _n_i, _n_o, limit = ng.admit(tiers, n_l - n_bi, n_l - n_bo)
        assignments: list[ng.BorderAssignment] = []
        if admitted and limit > 0:
            coords = dict(host.in_nodes)
            coords.update(host.out_nodes)
            found = ng.assign_borders(admitted, border_pairs, coords, limit,
                                      host_blocked, other_blocked)
            if found is not None:
                assignments = found
        ng.block_corners(assignments, host.corners, host_blocked)
        return assignments

    def _register_assignments(self, pair: Pair, assignments: list[ng.BorderAssignment]):
        self.pair_assignments[pair] = list(assignments)
        lo, hi = pair
        for b in assignments:
            origin = hi if b.host_side else lo
            if self.area_owner[origin] == self.wid:
                self.my_assigned[b.agent] = (pair, b)

    def _negotiation(self, rnd: int, send: list[Pair], recv: list[Pair],
                     local: list[Pair]):
        for pair in send:
            lo, hi = pair
            lob = self.blocked.setdefault(lo, ng.BlockedBorders.empty())
            body = {"pair": list(pair),
                    "candidates": [c.to_dict() for c in self._candidates(lo, hi, False)],
                    "blocked": {"as_from": sorted(lob.as_from),
                                "as_to": sorted(lob.as_to)}}
            self.ep.send(make_frame("migrate", self.wid, self.area_owner[hi], rnd,
                                    body, phase="negotiate",
                                    msg_id=self.ep.next_msg_id()))
        requests: dict[Pair, dict] = {}
        while len(requests) < len(recv):
            f = yield (lambda fr: fr["kind"] == "migrate"
                       and fr.get("phase") == "negotiate" and fr["round"] == rnd
                       and "candidates" in fr["body"])
            requests[tuple(f["body"]["pair"])] = f
        hosted = sorted(local + list(requests))
        for pair in hosted:
            req = requests.get(pair)
            remote = None
            remote_blocked = None
            if req is not None:
                remote = [ng.MigrationCandidate.from_dict(d)
                          for d in req["body"]["candidates"]]
                rb = req["body"]["blocked"]
                remote_blocked = ng.BlockedBorders(set(rb["as_from"]), set(rb["as_to"]))
            assignments = self._compute_pair(pair, remote, remote_blocked)
            self._register_assignments(pair, assignments)
            if req is not None:
                body = {"pair": list(pair),
                        "assignments": [b.to_dict() for b in assignments]}
                self.ep.send(make_frame("migrate", self.wid, req["from"], rnd, body,
                                        phase="negotiate", reply_to=req.get("msg_id")))
        for pair in send:
            f = yield (lambda fr: fr["kind"] == "migrate"
                       and fr.get("phase") == "negotiate" and fr["round"] == rnd
                       and "assignments" in fr["body"]
                       and tuple(fr["body"]["pair"]) == pair)
            self._register_assignments(
                pair, [ng.BorderAssignment.from_dict(d) for d in f["body"]["assignments"]])

    def _drop_assignment(self, pair: Pair, agent: int) -> None:
        self.pair_assignments[pair] = [b for b in self.pair_assignments.get(pair, [])
                                       if b.agent != agent]
        if agent in self.my_assigned and self.my_assigned[agent][0] == pair:
            del self.my_assigned[agent]

    def _rejection(self, rnd: int, send: list[Pair], recv: list[Pair]):
        to_report: dict[Pair, list[int]] = {pair: [] for pair in send}
        for aid in sorted(self.areas):
            records = []
            for pair, assigns in self.pair_assignments.items():
                lo, hi = pair
                if aid == hi:
                    records += [ng.IncomingRecord(b.agent, b.to_border, lo, self.wid)
                                for b in assigns if not b.host_side]
                elif aid == lo:
                    records += [ng.IncomingRecord(b.agent, b.to_border, hi,
                                                  self.area_owner[hi])
                                for b in assigns if b.host_side]
            rejected = ng.detect_rejections(records, self.wid)
            for r in records:
                if r.agent not in rejected:
                    continue
                pair = (aid, r.origin_area) if aid < r.origin_area else (r.origin_area, aid)
                self._drop_assignment(pair, r.agent)
                if self.area_owner[r.origin_area] != self.wid:
                    to_report[pair].append(r.agent)
        for pair in send:
            body = {"pair": list(pair), "rejected": sorted(to_report[pair])}
            self.ep.send(make_frame("migrate", self.wid, self.area_owner[pair[1]], rnd,
                                    body, phase="reject", msg_id=self.ep.next_msg_id()))
        served = 0
        while served < len(recv):
            f = yield (lambda fr: fr["kind"] == "migrate"
                       and fr.get("phase") == "reject" and fr["round"] == rnd
                       and "rejected" in fr["body"] and "ack" not in fr["body"])
            pair = tuple(f["body"]["pair"])
            for agent in f["body"]["rejected"]:
                self._drop_assignment(pair, agent)
            self.ep.send(make_frame("migrate", self.wid, f["from"], rnd,
                                    {"pair": f["body"]["pair"], "rejected": [], "ack": True},
                                    phase="reject", reply_to=f.get("msg_id")))
            served += 1
        for pair in send:
            yield (lambda fr: fr["kind"] == "migrate"
                   and fr.get("phase") == "reject" and fr["round"] == rnd
                   and fr["body"].get("ack") and tuple(fr["body"]["pair"]) == pair)

    # -- movement planning ---------------------------------------------------

    def _reserved_by_area(self) -> dict[int, set[int]]:
        reserved: dict[int, set[int]] = {aid: set() for aid in self.areas}
        for (lo, hi), assigns in self.pair_assignments.items():
            for b in assigns:
                dest = lo if b.host_side else hi
                if self.area_owner[dest] == self.wid:
                    reserved[dest].add(b.to_border)
        return reserved

    def _plan_round(self, rnd: int, touched: set[int]) -> None:
        reserved = self._reserved_by_area()
        for aid in sorted(self.areas):
            area = self.areas[aid]
            members = {a: st for a, st in self.agents.items() if st.area == aid}
            if not members:
                continue
            needs = (aid in touched
                     or any(st.has_work() for st in members.values())
                     or any(st.entering for st in members.values()))
            if not needs:
                continue
            residents = {a: st.node for a, st in members.items() if not st.entering}
            incoming = {a: st.node for a, st in members.items() if st.entering}
            outgoing, plan_goals = {}, {}
            for a, st in members.items():
                if a in self.my_assigned:
                    b = self.my_assigned[a][1]
                    outgoing[a] = b.from_border
                    plan_goals[a] = b.from_border
                elif st.goal_area == aid and st.goal_node is not None:
                    plan_goals[a] = st.goal_node
            n_a = len(area.in_nodes)
            inst = AreaInstance(
                area=area, round=rnd, residents=residents, incoming=incoming,
                outgoing=outgoing, plan_goals=plan_goals, reserved=reserved[aid],
                crowding_enforced=crowding_guard(n_a, len(members), len(reserved[aid]),
                                                 self.config.free_threshold))
            h_m = horizon(n_a, self.config.sensitivity)
            plan, stripped = relax_and_retry(inst, h_m, self.deadline)
            for a in stripped:
                pair = self.my_assigned[a][0]
                self._drop_assignment(pair, a)
            if plan is None:
                raise UnsolvableError(f"area {aid}: no movement plan within horizon {h_m} "
                                      f"after exhausting relaxation (round {rnd})")
            issues = check_plan(inst, plan)
            if issues:
                raise RuntimeError(f"internal: invalid plan for area {aid}: {issues}")
            self.plans[(rnd, aid)] = plan
            for a in members:
                self.agents[a].node = plan.steps[a][-1]
                self.agents[a].entering = False

    # -- confirmation --------------------------------------------------------

    def _migrant_record(self, agent: int) -> dict:
        st = self.agents[agent]
        return {"agent": agent, "node": st.node,
                "goal_node": st.goal_node, "goal_area": st.goal_area,
                "remaining": st.remaining[1:]}

    def _ingest_migrant(self, rec: dict, dest: int) -> None:
        self.agents[rec["agent"]] = AgentState(
            agent=rec["agent"], node=rec["node"], goal_node=rec["goal_node"],
            goal_area=rec["goal_area"], remaining=list(rec["remaining"]),
            area=dest, entering=True)

    def _confirmation(self, rnd: int, send: list[Pair], recv: list[Pair],
                      local: list[Pair]):
        confirmed: dict[Pair, dict[bool, list[int]]] = {}
        for agent, (pair, b) in sorted(self.my_assigned.items()):
            confirmed.setdefault(pair, {True: [], False: []})[b.host_side].append(agent)

        def records(pair: Pair, host_side: bool) -> list[dict]:
            return [self._migrant_record(a)
                    for a in confirmed.get(pair, {}).get(host_side, [])]

        def apply_outgoing(pair: Pair, host_side: bool) -> None:
            lo, hi = pair
            dest = lo if host_side else hi
            for a in confirmed.get(pair, {}).get(host_side, []):
                st = self.agents[a]
                st.remaining.pop(0)
                st.area = dest
                st.entering = True
                if self.area_owner[dest] != self.wid:
                    del self.agents[a]

        for pair in send:
            body = {"pair": list(pair), "migrants": records(pair, False), "dir": "req"}
            self.ep.send(make_frame("migrate", self.wid, self.area_owner[pair[1]], rnd,
                                    body, phase="confirm", msg_id=self.ep.next_msg_id()))
        served = 0
        while served < len(recv):
            f = yield (lambda fr: fr["kind"] == "migrate"
                       and fr.get("phase") == "confirm" and fr["round"] == rnd
                       and fr["body"].get("dir") == "req")
            pair = tuple(f["body"]["pair"])
            body = {"pair": list(pair), "migrants": records(pair, True), "dir": "resp"}
            apply_outgoing(pair, True)
            for rec in f["body"]["migrants"]:
                self._ingest_migrant(rec, pair[1])
            self.ep.send(make_frame("migrate", self.wid, f["from"], rnd, body,
                                    phase="confirm", reply_to=f.get("msg_id")))
            served += 1
        for pair in send:
            f = yield (lambda fr: fr["kind"] == "migrate"
                       and fr.get("phase") == "confirm" and fr["round"] == rnd
                       and fr["body"].get("dir") == "resp"
                       and tuple(fr["body"]["pair"]) == pair)
            apply_outgoing(pair, False)
            for rec in f["body"]["migrants"]:
                self._ingest_migrant(rec, pair[0])
        for pair in local:
            # both areas are mine: the hand-off is a pure state update
            apply_outgoing(pair, True)
            apply_outgoing(pair, False)

    # -- round driver --------------------------------------------------------

    def _parked_blocks(self) -> dict[int, ng.BlockedBorders]:
        # settled agents never leave their goal node, so a border node that
        # is such a goal can never host a crossing this round or any later one
        blocked: dict[int, ng.BlockedBorders] = {}
        for aid in self.areas:
            bb = ng.BlockedBorders.empty()
            for st in self.agents.values():
                if st.area == aid and not st.remaining and st.goal_node is not None \
                        and st.goal_area == aid:
                    bb.as_from.add(st.goal_node)
                    bb.as_to.add(st.goal_node)
            blocked[aid] = bb
        return blocked

    def _do_round(self, rnd: int, send: list[Pair], recv: list[Pair],
                  local: list[Pair], touched: set[int]):
        self.blocked = self._parked_blocks()
        self.pair_assignments = {}
        self.my_assigned = {}
        yield from self._negotiation(rnd, send, recv, local)
        yield from self._rejection(rnd, send, recv)
        self._plan_round(rnd, touched)
        yield from self._confirmation(rnd, send, recv, local)

    def steps(self):
        """The protocol as a generator: wherever it waits for a frame it yields
        the frame's predicate and is sent the frame; returns the WorkerResult."""
        self._plan_abstract()
        while True:
            bodies = yield from self._barrier(self.rounds)
            if self.round_cap is None:
                longest = max((b["max_plan"] for b in bodies.values()), default=0)
                self.round_cap = max(16, 4 * self.total_areas * max(longest, 1))
            active, send, recv, local, touched = determine_tasks(bodies, self.area_owner)
            if not active:
                break
            if self.wid in active:
                yield from self._do_round(self.rounds, send.get(self.wid, []),
                                          recv.get(self.wid, []), local.get(self.wid, []), touched)
            self.rounds += 1
            if self.rounds > self.round_cap:
                raise UnsolvableError(f"no progress after {self.rounds} rounds (cap)")
        return (yield from self._aggregate(self.rounds))

    def fail(self, exc: Exception) -> WorkerResult:
        """The result of a worker that `exc` ended.  Unless `exc` is another
        worker's abort, the failure is broadcast as an abort."""
        if isinstance(exc, AbortSignal):
            return WorkerResult(exc.status, exc.reason, rounds=self.rounds)
        reason = str(exc)
        if isinstance(exc, (SolveTimeout, TransportTimeout)):
            status = "timeout"
        elif isinstance(exc, UnsolvableError):
            status = "unsolvable"
        else:                           # a fault, not an outcome: keep its trace
            status = "failed"
            traceback.print_exception(exc)
            reason = f"{type(exc).__name__}: {exc}"
        self.ep.broadcast(make_frame("abort", self.wid, None, -1, {
            "reason": f"worker {self.wid}: {reason}", "status": status}))
        return WorkerResult(status, reason, rounds=self.rounds)

    # -- aggregation ---------------------------------------------------------

    def _aggregate(self, rounds: int):
        aggregator = min(self.worker_ids)
        body = {"plans": [[r, a, {str(ag): p for ag, p in plan.steps.items()}]
                          for (r, a), plan in sorted(self.plans.items())],
                "starts": {str(a): n for a, n in self.initial_positions.items()}}
        if self.wid != aggregator:
            self.ep.send(make_frame("aggregate", self.wid, aggregator, rounds, body))
            return WorkerResult("solved", rounds=rounds)
        plans: dict[tuple[int, int], dict[int, list[int]]] = {}
        starts: dict[int, int] = {}
        bodies = [body]
        got = {self.wid}
        while len(got) < len(self.worker_ids):
            f = yield (lambda fr: fr["kind"] == "aggregate" and fr["from"] not in got)
            got.add(f["from"])
            bodies.append(f["body"])
        for b in bodies:
            for r, a, steps in b["plans"]:
                plans[(r, a)] = {int(ag): p for ag, p in steps.items()}
            for ag, n in b["starts"].items():
                starts[int(ag)] = n
        paths = stitch(plans, starts)
        return WorkerResult("solved", paths=paths, rounds=rounds)


def drive(workers: list[Worker]) -> dict[int, WorkerResult]:
    """Step every worker in one thread, in id order, until it waits for a frame
    its endpoint does not hold; repeat until all have ended.  Results are keyed
    in the order the workers ended.  A pass in which no worker moves is a
    protocol stall: the first waiting worker fails, and its abort ends the rest."""
    order = sorted(workers, key=lambda w: w.wid)
    steps = {w.wid: w.steps() for w in order}
    waits: dict = {}                # wid -> predicate of the awaited frame
    results: dict[int, WorkerResult] = {}
    stalled = False
    while len(results) < len(order):
        moved, ended = False, len(results)
        for w in order:
            try:
                while w.wid not in results:
                    frame = None
                    if w.wid in waits:
                        if stalled:
                            stalled = False
                            raise RuntimeError(f"protocol stall: worker {w.wid} waits "
                                               "for a frame no worker can send")
                        frame = w.ep.take(waits[w.wid], w._wait())
                        if frame is None:
                            break
                    waits[w.wid] = steps[w.wid].send(frame)
                    moved = True
            except StopIteration as stop:
                results[w.wid] = stop.value
            except Exception as exc:
                results[w.wid] = w.fail(exc)
        stalled = not moved and len(results) == ended
    return results


# --- in-process orchestration ----------------------------------------------

@dataclass
class SolveResult:
    status: str                    # solved | unsolvable | timeout | failed
    reason: str = ""
    solution: GlobalSolution | None = None
    elapsed: float = 0.0
    rounds: int = 0
    trace: Trace | None = field(default=None, repr=False)


def build_workers(problem: Problem, config: RunConfig):
    """Partition the problem and prepare per-worker inputs."""
    subs, links = divide(problem, config.dx, config.dy)
    placements = assign_agents(subs, problem)
    area_owner = {ar.id: sub.id for sub in subs for ar in sub.areas}
    per_worker: dict[int, list[AgentState]] = {sub.id: [] for sub in subs}
    for agent in sorted(placements):
        pl = placements[agent]
        per_worker[area_owner[pl.area]].append(
            AgentState(agent, pl.node, pl.goal_node, pl.goal_area, [], pl.area))
    return subs, links, area_owner, per_worker


def solve(problem: Problem, config: RunConfig | None = None,
          trace: Trace | None = None) -> SolveResult:
    """Solve with all workers stepped in this thread over the in-process bus."""
    config = config or RunConfig()
    started = time.monotonic()
    deadline = started + config.timeout
    subs, links, area_owner, per_worker = build_workers(problem, config)
    bus = InprocBus(trace)
    workers = [Worker(sub.id, sub, links, area_owner, [s.id for s in subs],
                      per_worker[sub.id], config, bus.endpoint(sub.id), deadline)
               for sub in subs]
    results = drive(workers)
    agg = results[min(results)]
    bad = [r for r in results.values() if r.status != "solved"]     # first to end first
    if bad or agg.paths is None:
        status, reason = ((bad[0].status, bad[0].reason) if bad
                          else ("failed", "no aggregate produced"))
        return SolveResult(status, reason, elapsed=time.monotonic() - started,
                           rounds=agg.rounds, trace=trace)
    solution = GlobalSolution.from_paths(agg.paths)
    report = validate(problem, solution)
    if not report.ok:
        raise RuntimeError(f"internal: aggregated solution invalid: "
                           f"{[str(v) for v in report.violations[:5]]}")
    return SolveResult("solved", solution=solution, elapsed=time.monotonic() - started,
                       rounds=agg.rounds, trace=trace)
