"""Message transport for solver workers.

Two implementations: an in-process bus and a TCP mesh (4-byte big-endian
length prefix + UTF-8 JSON frames).  Broadcasts deliver to every endpoint
including the sender; point-to-point frames are buffered per receiver and
consumed by predicate.  A TCP `take` blocks until a frame matches; an
in-process `take` returns None at once, since its senders share its thread.
"""

from __future__ import annotations

import itertools
import json
import socket
import struct
import threading
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
    """Thread-safe record of every frame, for protocol assertions."""

    def __init__(self, path: str | None = None):
        self._lock = threading.Lock()
        self.frames: list[dict] = []
        self._path = path
        self._fh = open(path, "w") if path else None

    def record(self, frame: dict) -> None:
        with self._lock:
            self.frames.append(frame)
            if self._fh:
                self._fh.write(json.dumps(frame, sort_keys=True) + "\n")
                self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()
            self._fh = None


class Inbox:
    def __init__(self):
        self._lock = threading.Condition()
        self._items: list[dict] = []

    def put(self, frame: dict) -> None:
        with self._lock:
            self._items.append(frame)
            self._lock.notify_all()

    def poll(self, match) -> dict | None:
        """Remove and return the first frame satisfying `match`, or None;
        AbortSignal if an abort frame is buffered."""
        with self._lock:
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
        """`poll`, waiting up to `timeout` s; TransportTimeout if none matches."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                if (f := self.poll(match)) is not None:
                    return f
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(
                        f"no matching frame within {timeout:.1f}s "
                        f"(buffered: {[(f.get('kind'), f.get('phase'), f.get('round')) for f in self._items]})")
                self._lock.wait(remaining)


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

    def __init__(self, wid: int):
        self.wid = wid
        self.inbox = Inbox()
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


def recv_tcp_frame(sock: socket.socket) -> dict | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    data = _recv_exact(sock, length)
    if data is None:
        return None
    return json.loads(data.decode("utf-8"))


def listen_local() -> socket.socket:
    """A TCP socket listening on a free loopback port."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(64)
    return server


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


class TcpEndpoint(Endpoint):
    """One mesh node: a listening server plus cached outbound connections.

    `server` is a socket that is already bound and listening, so a peer's
    address is fixed before any process starts.  `peers` maps worker ids
    (and id 0 for the coordinating parent) to (host, port) addresses.
    """

    def __init__(self, wid: int, server: socket.socket,
                 peers: dict[int, tuple[str, int]]):
        super().__init__(wid)
        self.peers = dict(peers)
        self._out: dict[int, socket.socket] = {}
        self._out_lock = threading.Lock()
        self._server = server
        self._closing = False
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while not self._closing:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            threading.Thread(target=self._read_loop, args=(conn,), daemon=True).start()

    def _read_loop(self, conn: socket.socket):
        try:
            while True:
                frame = recv_tcp_frame(conn)
                if frame is None:
                    return
                self.inbox.put(frame)
        except OSError:
            return

    def _connection(self, wid: int) -> socket.socket:
        with self._out_lock:
            sock = self._out.get(wid)
            if sock is not None:
                return sock
            host, port = self.peers[wid]
            last = None
            for _ in range(100):        # peers may still be starting up
                try:
                    sock = socket.create_connection((host, port), timeout=5.0)
                    break
                except OSError as exc:
                    last = exc
                    time.sleep(0.1)
            else:
                raise TransportTimeout(f"cannot reach worker {wid} at {host}:{port}: {last}")
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
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        with self._out_lock:
            for sock in self._out.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._out.clear()
