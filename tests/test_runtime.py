"""Round protocol, task determination, stitching, end-to-end solves."""

import threading
import time

import pytest

from mapfkit import runtime, workerproc
from mapfkit.cli import generate_instance
from mapfkit.model import SolveTimeout, parse_grid, validate
from mapfkit.runtime import (RunConfig, build_workers, determine_tasks, solve,
                             stitch)
from mapfkit.transport import Trace


def run(text, **cfg):
    cfg.setdefault("timeout", 60.0)
    return solve(parse_grid(text), RunConfig(**cfg))


class TestDetermineTasks:
    # area owners: worker 1 owns areas 1 and 2, worker 2 owns area 3
    OWNER = {1: 1, 2: 1, 3: 2}

    def test_lower_owner_sends(self):
        track = {1: {"has_work": True, "pending": [[7, 2, 3]], "max_plan": 1},
                 2: {"has_work": False, "pending": [], "max_plan": 0}}
        active, send, recv, local, touched = determine_tasks(track, self.OWNER)
        assert send == {1: [(2, 3)]}
        assert recv == {2: [(2, 3)]}
        assert local == {}
        assert touched == {2, 3}

    def test_same_owner_pair_is_local(self):
        track = {1: {"has_work": True, "pending": [[7, 2, 1]], "max_plan": 1},
                 2: {"has_work": False, "pending": [], "max_plan": 0}}
        active, send, recv, local, touched = determine_tasks(track, self.OWNER)
        assert local == {1: [(1, 2)]}
        assert not send and not recv
        assert active == {1}

    def test_receiver_becomes_active(self):
        track = {1: {"has_work": True, "pending": [[7, 2, 3]], "max_plan": 1},
                 2: {"has_work": False, "pending": [], "max_plan": 0}}
        active, *_ = determine_tasks(track, self.OWNER)
        assert active == {1, 2}

    def test_idle_workers_inactive(self):
        track = {1: {"has_work": False, "pending": [], "max_plan": 0},
                 2: {"has_work": False, "pending": [], "max_plan": 0}}
        active, send, recv, local, touched = determine_tasks(track, self.OWNER)
        assert not active and not touched

    def test_duplicate_pairs_collapse(self):
        track = {1: {"has_work": True, "pending": [[7, 2, 3], [8, 3, 2]],
                     "max_plan": 1},
                 2: {"has_work": True, "pending": [], "max_plan": 0}}
        _, send, recv, _, _ = determine_tasks(track, self.OWNER)
        assert send == {1: [(2, 3)]}
        assert recv == {2: [(2, 3)]}


class TestStitch:
    def test_no_plans_yields_start_only(self):
        assert stitch({}, {1: 5, 2: 9}) == {1: [5], 2: [9]}

    def test_rounds_concatenate_with_padding(self):
        plans = {(0, 1): {1: [5, 6, 7]},
                 (0, 2): {2: [9, 10]},
                 (1, 1): {1: [7, 8]}}
        paths = stitch(plans, {1: 5, 2: 9})
        assert paths[1] == [5, 6, 7, 8]
        assert paths[2] == [9, 10, 10, 10]

    def test_unplanned_agent_waits(self):
        plans = {(0, 1): {1: [5, 6]}}
        paths = stitch(plans, {1: 5, 2: 9})
        assert paths[2] == [9, 9]

    def test_discontinuity_raises(self):
        plans = {(0, 1): {1: [5, 6]}, (1, 1): {1: [7, 8]}}
        with pytest.raises(RuntimeError):
            stitch(plans, {1: 5})


TWO_WORKERS = "agent 1 0 0 5 1\nagent 2 5 1 0 0\n\n" + "\n".join(["." * 6] * 2)
UNREACHABLE = "agent 1 0 0 3 0\n\n.#..\n.#..\n.#..\n.#..\n"


class TestFailureStatus:
    @pytest.mark.parametrize("exc, status", [
        (SolveTimeout("movement planning deadline exceeded"), "timeout"),
        (KeyError(7), "failed"),
    ])
    def test_planner_failure_maps_to_status(self, monkeypatch, exc, status):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(runtime, "relax_and_retry", fail)
        res = run(TWO_WORKERS, dx=3, dy=2)
        assert res.status == status
        assert str(exc) in res.reason

    def test_frame_wait_past_deadline_is_timeout(self, monkeypatch):
        # one worker plans past the deadline; the first worker to wait for
        # a frame after it finds the deadline gone and aborts the solve
        real = runtime.relax_and_retry

        def slow(inst, h_m, deadline=None):
            if inst.area.id == 1:
                time.sleep(max(0.0, deadline - time.monotonic()) + 0.5)
            return real(inst, h_m, deadline)
        monkeypatch.setattr(runtime, "relax_and_retry", slow)
        res = run(TWO_WORKERS, dx=3, dy=2, timeout=1.0)
        assert res.status == "timeout"
        assert res.reason == "solve timeout exceeded"

    def test_reason_is_the_failing_workers_own(self, monkeypatch):
        # the last worker gives up; the others only echo its abort
        text = generate_instance(24, 24, 23, 0.0, seed=11, solvable=True)
        _subs, _links, area_owner, _agents = build_workers(parse_grid(text), RunConfig())
        last = max(area_owner.values())
        real = runtime.relax_and_retry

        def fail(inst, h_m, deadline=None):
            if area_owner[inst.area.id] == last:
                raise SolveTimeout("movement planning deadline exceeded")
            return real(inst, h_m, deadline)
        monkeypatch.setattr(runtime, "relax_and_retry", fail)
        res = run(text)
        assert res.status == "timeout"
        assert res.reason == "movement planning deadline exceeded"

    def test_protocol_stall_fails_at_once(self, monkeypatch):
        # the last worker waits for a negotiate request that no one sends
        real = runtime.determine_tasks

        def confused(track, area_owner):
            active, send, recv, local, touched = real(track, area_owner)
            last = max(track)
            active.add(last)
            recv.setdefault(last, []).append((0, 0))
            return active, send, recv, local, touched
        monkeypatch.setattr(runtime, "determine_tasks", confused)
        t0 = time.monotonic()
        res = run(TWO_WORKERS, dx=3, dy=2)
        assert res.status == "failed"
        assert "protocol stall" in res.reason
        assert time.monotonic() - t0 < 1.0

    def test_crowded_instance_times_out(self):
        text = generate_instance(24, 24, 120, 0.0, seed=11, solvable=True)
        t0 = time.monotonic()
        res = run(text, timeout=3.0)
        assert res.status == "timeout"
        assert time.monotonic() - t0 < 5.0

    def test_tcp_result_frame_carries_status(self):
        res = workerproc.solve_tcp(parse_grid(UNREACHABLE),
                                   RunConfig(dx=2, dy=4, timeout=60.0))
        assert res.status == "unsolvable"
        assert "unreachable" in res.reason


class TestElapsed:
    def slow_validate(self, monkeypatch, owner):
        real = owner.validate

        def slow(*args):
            time.sleep(0.3)
            return real(*args)
        monkeypatch.setattr(owner, "validate", slow)

    def test_inproc_includes_validation(self, monkeypatch):
        self.slow_validate(monkeypatch, runtime)
        res = run(TWO_WORKERS, dx=3, dy=2)
        assert res.status == "solved" and res.elapsed >= 0.3

    def test_tcp_includes_validation(self, monkeypatch):
        self.slow_validate(monkeypatch, workerproc)
        res = workerproc.solve_tcp(parse_grid(TWO_WORKERS),
                                   RunConfig(dx=3, dy=2, timeout=60.0))
        assert res.status == "solved" and res.elapsed >= 0.3


class TestBuildWorkers:
    def test_agents_grouped_by_owning_worker(self):
        text = "agent 1 0 0 5 1\nagent 2 5 0 0 1\n\n" + "\n".join(["." * 6] * 2)
        subs, links, area_owner, per_worker = \
            build_workers(parse_grid(text), RunConfig(dx=3, dy=2))
        assert len(subs) == 2
        homes = {st.agent: area_owner[st.area]
                 for states in per_worker.values() for st in states}
        assert homes[1] != homes[2]
        for wid, states in per_worker.items():
            for st in states:
                assert area_owner[st.area] == wid


class TestSolveEndToEnd:
    def test_single_area_swap(self):
        # two agents trade places inside one area
        res = run("agent 1 0 0 2 0\nagent 2 2 0 0 0\n\n...\n...\n...\n",
                  dx=3, dy=3)
        assert res.status == "solved"
        p = parse_grid("agent 1 0 0 2 0\nagent 2 2 0 0 0\n\n...\n...\n...\n")
        assert validate(p, res.solution).ok

    def test_cross_area_migration(self):
        res = run(TWO_WORKERS, dx=3, dy=2)
        assert res.status == "solved"
        assert res.rounds >= 2
        assert validate(parse_grid(TWO_WORKERS), res.solution).ok

    def test_agent_without_goal_stays_valid(self):
        text = "agent 1 0 0 3 0\nagent 2 1 1\n\n....\n....\n"
        res = run(text, dx=2, dy=2)
        assert res.status == "solved"
        assert validate(parse_grid(text), res.solution).ok

    def test_generated_12x12_with_obstacles(self):
        text = generate_instance(12, 12, 14, 0.1, 7, solvable=True)
        p = parse_grid(text)
        res = solve(p, RunConfig(dx=4, dy=4, timeout=120.0))
        assert res.status == "solved"
        assert validate(p, res.solution).ok

    def test_deterministic_repeat(self):
        text = generate_instance(12, 12, 10, 0.0, 3, solvable=True)
        a = solve(parse_grid(text), RunConfig(dx=4, dy=4, timeout=120.0))
        b = solve(parse_grid(text), RunConfig(dx=4, dy=4, timeout=120.0))
        assert a.status == b.status == "solved"
        assert a.solution.paths == b.solution.paths

    def test_inproc_solve_starts_no_thread(self, monkeypatch):
        # 36 workers, all stepped in the calling thread
        def refuse(thread):
            raise RuntimeError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        text = generate_instance(48, 48, 92, 0.0, seed=11, solvable=True)
        res = run(text)
        assert res.status == "solved"
        assert validate(parse_grid(text), res.solution).ok

    def test_wide_tiles_46_agents(self):
        # two 12x24 tiles share one 24-pair border, so each negotiation is
        # a large border matching
        text = generate_instance(24, 24, 46, 0.0, seed=11, solvable=True)
        res = run(text, dx=12, dy=24)
        assert res.status == "solved"
        assert validate(parse_grid(text), res.solution).ok

    def test_unreachable_goal_is_unsolvable(self):
        res = run(UNREACHABLE, dx=2, dy=4)
        assert res.status == "unsolvable"
        assert "unreachable" in res.reason

    def test_round_cap_reports_unsolvable(self):
        text = "agent 1 0 0 5 1\n\n" + "\n".join(["." * 6] * 2)
        res = run(text, dx=3, dy=2, max_rounds=0)
        assert res.status == "unsolvable"
        assert "cap" in res.reason

    def test_trace_records_track_frames(self):
        text = "agent 1 0 0 5 1\nagent 2 5 1 0 0\n\n" + "\n".join(["." * 6] * 2)
        trace = Trace()
        res = solve(parse_grid(text), RunConfig(dx=3, dy=2, timeout=60.0), trace)
        assert res.status == "solved"
        kinds = {f["kind"] for f in trace.frames}
        assert "track" in kinds and "migrate" in kinds and "aggregate" in kinds
        rounds = {f["round"] for f in trace.frames if f["kind"] == "track"}
        assert rounds == set(range(res.rounds + 1))
