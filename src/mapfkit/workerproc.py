"""Distributed mode: spawn one OS process per solver worker, full TCP mesh.

The parent partitions the problem, writes one JSON bundle per worker, spawns
`python -m mapfkit.workerproc <bundle>`, and waits on its own endpoint
(worker id 0) for the aggregator's result frame.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .model import GlobalSolution, Problem, validate
from .partition import LinkGraph, Subproblem
from .runtime import AgentState, RunConfig, SolveResult, Worker, build_workers, drive
from .transport import (AbortSignal, TcpEndpoint, TransportTimeout, listen_local,
                        make_frame)


def solve_tcp(problem: Problem, config: RunConfig) -> SolveResult:
    started = time.monotonic()
    subs, links, area_owner, per_worker = build_workers(problem, config)
    # every listening socket is bound here and handed to its worker, so no
    # port is free between being chosen and being bound; a connection waits
    # in the backlog until its owner first takes, so each backlog holds one
    # connection per endpoint
    wids = [0] + [sub.id for sub in subs]
    servers = {wid: listen_local(len(wids)) for wid in wids}
    addrs = {wid: server.getsockname() for wid, server in servers.items()}
    parent = TcpEndpoint(0, servers[0], addrs)
    procs = []
    try:
        with tempfile.TemporaryDirectory(prefix="mapfkit-") as tmp:
            for sub in subs:
                bundle = {
                    "wid": sub.id,
                    "sub": sub.to_dict(),
                    "links": links.to_dict(),
                    "area_owner": {str(a): w for a, w in area_owner.items()},
                    "worker_ids": [s.id for s in subs],
                    "agents": [{"agent": a.agent, "node": a.node,
                                "goal_node": a.goal_node, "goal_area": a.goal_area,
                                "area": a.area}
                               for a in per_worker[sub.id]],
                    "config": config.to_dict(),
                    "peers": {str(w): list(addr) for w, addr in addrs.items()},
                    "listen_fd": servers[sub.id].fileno(),
                }
                path = Path(tmp) / f"worker-{sub.id}.json"
                path.write_text(json.dumps(bundle))
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "mapfkit.workerproc", str(path)],
                    pass_fds=(bundle["listen_fd"],)))
                servers[sub.id].close()
            deadline = started + config.timeout
            try:
                frame = parent.take(lambda f: f["kind"] == "result",
                                    max(1.0, deadline - time.monotonic()) + 15.0)
            except AbortSignal as exc:
                return SolveResult(exc.status, exc.reason,
                                   elapsed=time.monotonic() - started)
            except TransportTimeout:
                return SolveResult("timeout", "no result from workers",
                                   elapsed=time.monotonic() - started)
            body = frame["body"]
            if body["status"] != "solved":
                return SolveResult(body["status"], body["reason"],
                                   elapsed=time.monotonic() - started)
            paths = {int(a): p for a, p in body["paths"].items()}
            solution = GlobalSolution.from_paths(paths)
            report = validate(problem, solution)
            if not report.ok:
                raise RuntimeError(f"internal: aggregated solution invalid: "
                                   f"{[str(v) for v in report.violations[:5]]}")
            return SolveResult("solved", solution=solution,
                               elapsed=time.monotonic() - started,
                               rounds=body.get("rounds", 0))
    finally:
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                p.kill()
        for server in servers.values():
            server.close()
        parent.close()


def main(argv: list[str]) -> int:
    bundle = json.loads(Path(argv[0]).read_text())
    wid = bundle["wid"]
    sub = Subproblem.from_dict(bundle["sub"])
    links = LinkGraph.from_dict(bundle["links"])
    area_owner = {int(a): w for a, w in bundle["area_owner"].items()}
    agents = [AgentState(d["agent"], d["node"], d["goal_node"], d["goal_area"],
                         [], d["area"]) for d in bundle["agents"]]
    config = RunConfig.from_dict(bundle["config"])
    peers = {int(w): tuple(addr) for w, addr in bundle["peers"].items()}
    ep = TcpEndpoint(wid, socket.socket(fileno=bundle["listen_fd"]), peers)
    deadline = time.monotonic() + config.timeout
    worker = Worker(wid, sub, links, area_owner, bundle["worker_ids"], agents,
                    config, ep, deadline)
    res = drive([worker])[wid]
    if wid == min(bundle["worker_ids"]):
        body = {"status": res.status, "reason": res.reason, "rounds": res.rounds,
                "paths": {str(a): p for a, p in (res.paths or {}).items()}}
        try:
            ep.send(make_frame("result", wid, 0, res.rounds, body))
        except (TransportTimeout, OSError):
            pass
    time.sleep(0.2)    # let in-flight frames drain before tearing down
    ep.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
