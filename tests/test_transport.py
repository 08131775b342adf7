"""TCP mesh and in-process endpoints."""

import pytest

from mapfkit.transport import (AbortSignal, InprocBus, TcpEndpoint, TransportTimeout,
                               listen_local, make_frame)


class TestTcpEndpoint:
    def test_bound_socket_receives_frame_from_peer(self):
        servers = {1: listen_local(), 2: listen_local()}
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
        server = listen_local()
        ep = TcpEndpoint(1, server, {1: server.getsockname()})
        try:
            with pytest.raises(TransportTimeout, match="no matching frame"):
                ep.take(lambda f: True, 0.2)
        finally:
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
