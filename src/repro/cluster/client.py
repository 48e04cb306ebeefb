"""A pooled socket client for one worker process.

The coordinator holds one per shard worker.
"""

from __future__ import annotations

import socket
import threading
import time as _time
from dataclasses import replace
from pathlib import Path
from typing import cast

from ..obs import trace as _trace
from ..service.sanitizer import sanitized_lock
from . import protocol
from .protocol import FrameTooLarge, ProtocolError, R, Request


class ShardClient:
    """Typed request/reply RPC to one worker over pooled connections."""

    def __init__(self, address: tuple[str, int], pid: int | None = None,
                 directory: Path | None = None,
                 timeout: float = 30.0) -> None:
        self.address = address
        #: the worker's pid and directory, where the caller knows them.
        self.pid = pid
        self.directory = directory
        self.timeout = timeout
        self._idle: list[socket.socket] = []
        #: guards only the free-list; never held across send/recv.
        self._lock = sanitized_lock(
            threading.Lock(), "cluster.client.pool", allow_blocking=False
        )
        self.alive = True

    def rpc(self, request: Request[R], timeout: float | None = None) -> R:
        """Send one request; return its typed reply or raise the error.

        An error reply raises the class :data:`protocol.ERRORS` maps its
        kind to.  Connection-level failures (``OSError`` /
        :class:`ProtocolError`) propagate raw — the caller decides how
        to surface them.

        Trace stitching is centralized here: inside a live trace the
        request carries the coordinator's trace id (so the worker traces
        its side), and the span attachment riding the reply is grafted
        under the caller's current span with the send/recv wall-clock
        stamps.
        """
        if _trace.active() and request.trace_id is None:
            request = replace(request, trace_id=_trace.current_trace_id())
        wire = protocol.to_wire(request)
        sock = self._checkout()
        sent_ts = _time.time()
        try:
            if timeout is not None:
                sock.settimeout(timeout)
            protocol.send_message(sock, wire)
            answer = protocol.recv_message(sock)
            recv_ts = _time.time()
            if timeout is not None:
                sock.settimeout(self.timeout)
        except (OSError, ProtocolError):
            self._discard(sock)
            raise
        except FrameTooLarge:
            # Refused before a byte was written: the connection is
            # intact and the worker healthy, so the connection is kept.
            sock.settimeout(self.timeout)
            self._checkin(sock)
            raise
        self._checkin(sock)
        if not answer.get("ok"):
            raise protocol.error_from_wire(answer)
        reply = cast(R, protocol.from_wire(request.reply, answer))
        if reply.trace is not None:
            _trace.graft_remote_trace(
                reply.trace, sent_ts=sent_ts, recv_ts=recv_ts
            )
        return reply

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        sock = socket.create_connection(self.address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            self._idle.append(sock)

    def _discard(self, sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass  # already dead; nothing held open

    def close(self) -> bool:
        """Close the pooled connections and mark the client not alive;
        whether it was alive until now (true for one call only)."""
        with self._lock:
            idle, self._idle = self._idle, []
            was_alive, self.alive = self.alive, False
        for sock in idle:
            self._discard(sock)
        return was_alive
