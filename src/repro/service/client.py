"""Pooled, pipelined client for the verification service.

A :class:`ServiceClient` owns a small pool of TCP connections.  Every
request carries a client-assigned id and is written immediately —
callers never wait for earlier responses before later requests hit the
wire, so a burst of ``asyncio.gather``-ed calls pipelines naturally.
The server reads the frames that arrive together in one event-loop
tick, so its micro-batcher puts them in one window; a request that
arrives alone is settled at the end of its tick, without waiting.
A per-connection reader task matches responses back to futures by id
(the server may answer out of order once batching and caching skew
settlement times).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional, Union

from repro.crypto.dsa import RecoverableSignature
from repro.exceptions import ServiceError, ServiceUnavailable
from repro.service.retry import RetryPolicy
from repro.service.wire import (
    MAX_FRAME_BYTES,
    decode_body,
    encode_frame,
    read_frame,
)

__all__ = ["ServiceClient", "ServiceResponseError"]


class ServiceResponseError(ServiceError):
    """The server answered with a typed error response."""

    def __init__(self, response: Dict[str, Any]) -> None:
        super().__init__(
            "service error %r: %s" % (
                response.get("error"), response.get("detail"),
            )
        )
        self.response = response


class _Connection:
    """One pooled connection: writer, reader task, in-flight futures."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, max_frame: int) -> None:
        self.reader = reader
        self.writer = writer
        self.max_frame = max_frame
        self.inflight: Dict[Any, "asyncio.Future[Dict[str, Any]]"] = {}
        #: Why the connection died, once it has; requests sent after
        #: that must fail fast instead of registering futures nothing
        #: will ever resolve.
        self.failure: Optional[BaseException] = None
        self.reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                body = await read_frame(self.reader, self.max_frame)
                if body is None:
                    break
                response = decode_body(body)
                future = self.inflight.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (KeyboardInterrupt, SystemExit):
            # An interrupt belongs to the process, not to this
            # connection.  Swallowed here, a SIGTERM that lands while
            # this task runs would leave the process serving forever;
            # the waiters fail with a plain ServiceError instead.
            error = ServiceError("connection reader interrupted")
            raise
        except BaseException as exc:  # noqa: BLE001 - propagated to waiters
            error = exc
        finally:
            self.failure = (
                error or ServiceError("connection closed by the server")
            )
            for future in self.inflight.values():
                if not future.done():
                    future.set_exception(self.failure)
            self.inflight.clear()

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # A dead connection must fail the request, not swallow it: a
        # write to a closed transport is silently discarded by asyncio,
        # so without this check the future would never resolve.  The
        # check is race-free: there is no await between it and the
        # future registration below, so the reader task cannot die in
        # between.
        if self.failure is not None or self.reader_task.done() \
                or self.writer.is_closing():
            raise self.failure if isinstance(self.failure, ServiceError) \
                else ServiceError(
                    "connection is closed%s" % (
                        ": %s" % self.failure if self.failure else "",
                    )
                )
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_event_loop().create_future()
        )
        self.inflight[payload["id"]] = future
        self.writer.write(encode_frame(payload, self.max_frame))
        # No drain between pipelined writes: the response wait below is
        # the natural flow control for request/response traffic.
        return await future

    async def close(self) -> None:
        self.reader_task.cancel()
        try:
            await self.reader_task
        except (asyncio.CancelledError, ServiceError):
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServiceClient:
    """Round-robin pool of pipelined connections to one server.

    Build instances through :meth:`connect`; close with :meth:`close`
    (or use ``async with``).

    A client built by :meth:`connect` remembers its peer address and
    **self-heals**: a pooled connection found dead when its turn comes
    is replaced with a fresh dial before the request is written, so a
    restarted server costs callers the requests that were in flight
    when it died — never every request thereafter.  In-flight failures
    still surface to the caller (only the caller knows whether a retry
    is safe); :class:`~repro.service.retry.RetryPolicy` is the tool for
    that layer.
    """

    def __init__(
        self,
        connections: List[_Connection],
        remote: Optional[Any] = None,
        max_frame: int = MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not connections:
            raise ServiceError("a client needs at least one connection")
        self._connections = connections
        self._rr = itertools.cycle(range(len(connections)))
        self._ids = itertools.count(1)
        self._remote = tuple(remote) if remote is not None else None
        self._max_frame = max_frame
        self._retry = retry
        self._slot_locks = [asyncio.Lock() for _ in connections]
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        connections: int = 1,
        max_frame: int = MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
    ) -> "ServiceClient":
        """Open ``connections`` parallel connections to ``host:port``."""
        pool: List[_Connection] = []
        try:
            for _ in range(max(1, int(connections))):
                reader, writer = await asyncio.open_connection(host, port)
                pool.append(_Connection(reader, writer, max_frame))
        except Exception:
            for connection in pool:
                await connection.close()
            raise
        return cls(pool, remote=(host, port), max_frame=max_frame,
                   retry=retry)

    # -- request primitives ------------------------------------------------------

    def _is_dead(self, connection: _Connection) -> bool:
        return (connection.failure is not None
                or connection.reader_task.done()
                or connection.writer.is_closing())

    async def _slot(self, index: int) -> _Connection:
        """The connection at ``index``, re-dialed if it has died.

        Reconnection needs a remembered peer (clients built straight
        from a connection list have none) and is serialized per slot so
        two concurrent requests cannot race a double dial and leak one.
        A failed re-dial surfaces as the slot's original failure —
        callers keep seeing the :class:`ServiceError` they always did.
        """
        connection = self._connections[index]
        if not self._is_dead(connection) or self._remote is None:
            return connection
        async with self._slot_locks[index]:
            connection = self._connections[index]
            if self._closed or not self._is_dead(connection):
                return connection
            try:
                reader, writer = await asyncio.open_connection(
                    *self._remote
                )
            except (ConnectionError, OSError) as exc:
                failure = connection.failure
                if isinstance(failure, ServiceError):
                    raise failure from exc
                raise ServiceError(
                    "connection to %s:%s is closed and re-dial failed: %s"
                    % (self._remote[0], self._remote[1], exc)
                ) from exc
            replacement = _Connection(reader, writer, self._max_frame)
            await connection.close()
            self._connections[index] = replacement
            return replacement

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw request (an ``id`` is added) on the next connection."""
        body = dict(payload)
        body["id"] = next(self._ids)
        connection = await self._slot(next(self._rr))
        return await connection.request(body)

    async def request_checked(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Like :meth:`request`, raising typed errors for non-ok statuses."""
        response = await self.request(payload)
        status = response.get("status")
        if status == "busy":
            raise ServiceUnavailable(
                str(response.get("reason") or "service is busy")
            )
        if status != "ok":
            raise ServiceResponseError(response)
        return response

    # -- typed operations --------------------------------------------------------

    async def verify(
        self,
        signer: str,
        message: bytes,
        signature: Union[RecoverableSignature, Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Raw DSA verification; returns the full ok-response."""
        if isinstance(signature, RecoverableSignature):
            signature = signature.to_canonical()
        return await self.request_checked({
            "op": "verify",
            "signer": signer,
            "message": message,
            "signature": signature,
        })

    async def verify_batch(
        self, items: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Ship many verify items in one ``verify-batch`` frame.

        Each item is ``{"signer", "message", "signature"}`` (signature
        canonical dict or :class:`RecoverableSignature`); the return is
        one result mapping per item, in order — items fail individually
        (``status`` of ``busy``/``error``), never collectively.
        """
        encoded = []
        for item in items:
            signature = item.get("signature")
            if isinstance(signature, RecoverableSignature):
                item = dict(item, signature=signature.to_canonical())
            encoded.append(item)
        response = await self.request_checked({
            "op": "verify-batch",
            "items": encoded,
        })
        return response["results"]

    async def check_session(
        self,
        prev_session: Dict[str, Any],
        observed_state: Dict[str, Any],
        checked_host: Optional[str],
        checking_host: str,
    ) -> Dict[str, Any]:
        """Protocol-v2 session check; returns the canonical verdict."""
        response = await self.request_checked({
            "op": "check-session",
            "prev_session": prev_session,
            "observed_state": observed_state,
            "checked_host": checked_host,
            "checking_host": checking_host,
        })
        return response["verdict"]

    async def stats(self) -> Dict[str, Any]:
        """The server's aggregate metrics snapshot."""
        response = await self.request_checked({"op": "stats"})
        return response["stats"]

    async def ping(self) -> bool:
        """Liveness check."""
        response = await self.request({"op": "ping"})
        return response.get("status") == "ok"

    async def hello(self) -> Dict[str, Any]:
        """The full ping response: status, wire version, instance, role.

        Callers that negotiate (``repro.service.connect``) or watch for
        backend restarts (the cluster health monitor) need the whole
        advertisement, not just liveness.
        """
        return await self.request({"op": "ping"})

    # -- lifecycle ---------------------------------------------------------------

    async def close(self) -> None:
        """Close every pooled connection (and stop self-healing)."""
        self._closed = True
        for connection in self._connections:
            await connection.close()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

