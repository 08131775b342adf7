"""TCP mesh and in-process endpoints."""

import json
import socket
import struct
import threading

import pytest

from mapfkit.transport import (AbortSignal, InprocBus, TcpEndpoint, TransportTimeout,
                               listen_local, make_frame)


class TestTcpEndpoint:
    def test_bound_socket_receives_frame_from_peer(self):
        servers = {1: listen_local(2), 2: listen_local(2)}
        addrs = {wid: server.getsockname() for wid, server in servers.items()}
        ep1 = TcpEndpoint(1, servers[1], addrs)
        ep2 = TcpEndpoint(2, servers[2], addrs)
        try:
            ep2.send(make_frame("ping", 2, 1, 0, {"n": 7}))
            frame = ep1.take(lambda f: f["kind"] == "ping", 10.0)
            assert frame["from"] == 2 and frame["body"] == {"n": 7}
        finally:
            ep1.close()
            ep2.close()

    def test_take_without_sender_times_out(self):
        server = listen_local(1)
        ep = TcpEndpoint(1, server, {1: server.getsockname()})
        try:
            with pytest.raises(TransportTimeout, match="no matching frame"):
                ep.take(lambda f: True, 0.2)
        finally:
            ep.close()


    def test_exchange_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("thread started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        self.test_bound_socket_receives_frame_from_peer()

    def test_frames_sent_before_first_take_all_arrive(self):
        # every sender connects while endpoint 0 is not yet accepting, so the
        # connections wait in its backlog, which exceeds the old fixed 64
        n = 70
        servers = {wid: listen_local(n + 1) for wid in range(n + 1)}
        addrs = {wid: server.getsockname() for wid, server in servers.items()}
        eps = [TcpEndpoint(wid, servers[wid], addrs) for wid in range(n + 1)]
        try:
            for ep in eps[1:]:
                ep.send(make_frame("ping", ep.wid, 0, 0, {}))
            senders = {eps[0].take(lambda f: f["kind"] == "ping", 10.0)["from"]
                       for _ in range(n)}
            assert senders == set(range(1, n + 1))
        finally:
            for ep in eps:
                ep.close()

    def test_frame_split_across_writes(self):
        server = listen_local(1)
        ep = TcpEndpoint(1, server, {1: server.getsockname()})
        raw = socket.create_connection(server.getsockname(), timeout=5.0)
        try:
            data = json.dumps(make_frame("ping", 2, 1, 0, {"n": list(range(50))})).encode()
            raw.sendall(struct.pack(">I", len(data)) + data[:len(data) // 2])
            with pytest.raises(TransportTimeout):
                ep.take(lambda f: True, 0.2)
            raw.sendall(data[len(data) // 2:])
            frame = ep.take(lambda f: True, 10.0)
            assert frame["body"] == {"n": list(range(50))}
        finally:
            raw.close()
            ep.close()


class TestInprocEndpoint:
    def test_take_returns_none_until_a_frame_matches(self):
        bus = InprocBus()
        ep1, ep2 = bus.endpoint(1), bus.endpoint(2)
        ep2.send(make_frame("ping", 2, 1, 0, {}))
        assert ep1.take(lambda f: f["kind"] == "pong", 10.0) is None
        assert ep1.take(lambda f: f["kind"] == "ping", 10.0)["from"] == 2
        assert ep1.take(lambda f: f["kind"] == "ping", 10.0) is None

    def test_buffered_abort_raises(self):
        bus = InprocBus()
        ep1, ep2 = bus.endpoint(1), bus.endpoint(2)
        ep2.send(make_frame("ping", 2, 1, 0, {}))
        ep2.broadcast(make_frame("abort", 2, None, -1,
                                 {"reason": "worker 2: gave up", "status": "timeout"}))
        with pytest.raises(AbortSignal) as caught:
            ep1.take(lambda f: f["kind"] == "ping", 10.0)
        assert caught.value.status == "timeout"
        assert caught.value.reason == "worker 2: gave up"
