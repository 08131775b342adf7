"""TCP mesh endpoints."""

from mapfkit.transport import TcpEndpoint, listen_local, make_frame


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
