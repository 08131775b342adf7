"""Message transport for solver workers.

Two implementations: an in-process bus and a TCP mesh (4-byte big-endian
length prefix + UTF-8 JSON frames).  Broadcasts deliver to every endpoint
including the sender; point-to-point frames are buffered per receiver and
consumed by predicate.  An in-process `take` returns None at once, since its
senders share its thread.  A TCP endpoint runs in its process's one thread:
it reads its sockets only while a `take` waits for a matching frame, and
sends block until the kernel has buffered the frame.
"""

from __future__ import annotations

import itertools
import json
import selectors
import socket
import struct
import time


class TransportTimeout(RuntimeError):
    pass


class AbortSignal(RuntimeError):
    """Another worker broadcast a global abort; `status` is the solve status
    its failure maps to (timeout, unsolvable or failed)."""

    def __init__(self, reason: str, status: str):
        super().__init__(reason)
        self.reason = reason
        self.status = status


class Trace:
    """Record of every frame, for protocol assertions."""

    def __init__(self, path: str | None = None):
        self.frames: list[dict] = []
        self._path = path
        self._fh = open(path, "w") if path else None

    def record(self, frame: dict) -> None:
        self.frames.append(frame)
        if self._fh:
            self._fh.write(json.dumps(frame, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()
            self._fh = None


class Inbox:
    """Buffered frames of one endpoint.  `fill(timeout)`, if given, waits up
    to `timeout` s for more frames and puts them here."""

    def __init__(self, fill=None):
        self._fill = fill
        self._items: list[dict] = []

    def put(self, frame: dict) -> None:
        self._items.append(frame)

    def poll(self, match) -> dict | None:
        """Remove and return the first frame satisfying `match`, or None;
        AbortSignal if an abort frame is buffered."""
        for f in self._items:
            if f.get("kind") == "abort":
                body = f.get("body", {})
                raise AbortSignal(body.get("reason", "abort"),
                                  body.get("status", "failed"))
        for i, f in enumerate(self._items):
            if match(f):
                return self._items.pop(i)
        return None

    def take(self, match, timeout: float) -> dict:
        """`poll`, filling for up to `timeout` s; TransportTimeout if none matches."""
        deadline = time.monotonic() + timeout
        while (f := self.poll(match)) is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._fill is None:
                raise TransportTimeout(
                    f"no matching frame within {timeout:.1f}s "
                    f"(buffered: {[(f.get('kind'), f.get('phase'), f.get('round')) for f in self._items]})")
            self._fill(remaining)
        return f


def make_frame(kind: str, sender: int, to: int | None, round_no: int,
               body: dict, phase: str | None = None,
               msg_id: int | None = None, reply_to: int | None = None) -> dict:
    frame = {"kind": kind, "from": sender, "to": to, "round": round_no, "body": body}
    if phase is not None:
        frame["phase"] = phase
    if msg_id is not None:
        frame["msg_id"] = msg_id
    if reply_to is not None:
        frame["reply_to"] = reply_to
    return frame


class Endpoint:
    """Base endpoint: send/broadcast plus an inbox."""

    def __init__(self, wid: int, fill=None):
        self.wid = wid
        self.inbox = Inbox(fill)
        self._ids = itertools.count(1)

    def next_msg_id(self) -> int:
        return next(self._ids)

    def send(self, frame: dict) -> None:
        raise NotImplementedError

    def broadcast(self, frame: dict) -> None:
        raise NotImplementedError

    def take(self, match, timeout: float) -> dict:
        return self.inbox.take(match, timeout)

    def close(self) -> None:
        pass


class InprocBus:
    """Shared bus for endpoints living in one process."""

    def __init__(self, trace: Trace | None = None):
        self.trace = trace
        self.endpoints: dict[int, "InprocEndpoint"] = {}

    def endpoint(self, wid: int) -> "InprocEndpoint":
        ep = InprocEndpoint(wid, self)
        self.endpoints[wid] = ep
        return ep

    def deliver(self, frame: dict) -> None:
        if self.trace is not None:
            self.trace.record(frame)
        to = frame.get("to")
        if to is None:
            for ep in self.endpoints.values():
                ep.inbox.put(frame)
        else:
            self.endpoints[to].inbox.put(frame)


class InprocEndpoint(Endpoint):
    def __init__(self, wid: int, bus: InprocBus):
        super().__init__(wid)
        self._bus = bus

    def send(self, frame: dict) -> None:
        self._bus.deliver(frame)

    def broadcast(self, frame: dict) -> None:
        self._bus.deliver(frame)

    def take(self, match, timeout: float) -> dict | None:
        # every sender runs in this thread, so waiting here cannot help
        return self.inbox.poll(match)


# --- TCP mesh ---------------------------------------------------------------

def send_tcp_frame(sock: socket.socket, frame: dict) -> None:
    data = json.dumps(frame, sort_keys=True).encode("utf-8")
    sock.sendall(struct.pack(">I", len(data)) + data)


def listen_local(backlog: int) -> socket.socket:
    """A TCP socket listening on a free loopback port.  A peer's connection
    waits in the backlog until the owner next takes, so `backlog` should be
    the number of endpoints that may connect."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(backlog)
    return server


class TcpEndpoint(Endpoint):
    """One mesh node: a listening server plus cached outbound connections.

    `server` is a socket that is already bound and listening, so a peer's
    address is fixed before any process starts.  `peers` maps worker ids
    (and id 0 for the coordinating parent) to (host, port) addresses.
    Inbound sockets are read, and new peers accepted, only inside `take`.
    """

    def __init__(self, wid: int, server: socket.socket,
                 peers: dict[int, tuple[str, int]]):
        super().__init__(wid, self._fill)
        self.peers = dict(peers)
        self._out: dict[int, socket.socket] = {}
        self._server = server
        server.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(server, selectors.EVENT_READ)

    def _fill(self, timeout: float) -> None:
        """Wait up to `timeout` s for the sockets; accept new peers and buffer
        every complete frame.  A socket at EOF or error is closed."""
        for key, _ in self._sel.select(timeout):
            sock = key.fileobj
            if sock is self._server:
                try:
                    conn, _ = sock.accept()
                except OSError:
                    continue
                self._sel.register(conn, selectors.EVENT_READ, bytearray())
                continue
            try:
                chunk = sock.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                self._sel.unregister(sock)
                sock.close()
                continue
            buf = key.data
            buf += chunk
            while len(buf) >= 4:
                (length,) = struct.unpack_from(">I", buf)
                if len(buf) < 4 + length:
                    break
                self.inbox.put(json.loads(buf[4:4 + length].decode("utf-8")))
                del buf[:4 + length]

    def _connection(self, wid: int) -> socket.socket:
        sock = self._out.get(wid)
        if sock is None:
            host, port = self.peers[wid]
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
            except OSError as exc:
                raise TransportTimeout(
                    f"cannot reach worker {wid} at {host}:{port}: {exc}") from exc
            self._out[wid] = sock
        return sock

    def send(self, frame: dict) -> None:
        to = frame["to"]
        if to == self.wid:
            self.inbox.put(frame)
            return
        send_tcp_frame(self._connection(to), frame)

    def broadcast(self, frame: dict) -> None:
        self.inbox.put(frame)
        for wid in self.peers:
            if wid != self.wid and wid != 0:
                send_tcp_frame(self._connection(wid), frame)

    def close(self) -> None:
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()
        self._sel.close()
        for sock in self._out.values():
            sock.close()
        self._out.clear()
