"""Server end-to-end: verdicts, cache, backpressure, malformed traffic.

Each test drives a real :class:`VerificationService` over loopback TCP
with the pooled client, in one event loop (``asyncio.run`` per test).
The malformed-traffic tests also run against a cluster gateway, the
frame server's other role.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest

from repro.crypto.keys import Identity
from repro.exceptions import ServiceError, ServiceUnavailable
from repro.service.client import ServiceClient, ServiceResponseError
from repro.service.cluster import ClusterConfig, ClusterGateway
from repro.service.server import (
    ServiceConfig,
    ServiceThread,
    VerificationService,
    build_service_keystore,
)
from repro.service.wire import (
    MAX_FRAME_BYTES,
    decode_body,
    encode_frame,
    read_frame,
    split_frames,
)


def _sign(name: str, message: bytes):
    """A recoverable signature by the deterministic principal ``name``."""
    return Identity.generate(name).private_key.sign_recoverable(message)


def _run_with_service(config, body, connections=1):
    """Start a server, connect a client, run ``body(service, client)``."""

    async def run():
        service = VerificationService(config)
        await service.start()
        try:
            client = await ServiceClient.connect(
                *service.address, connections=connections
            )
            try:
                return await body(service, client)
            finally:
                await client.close()
        finally:
            await service.stop()

    return asyncio.run(run())


class TestVerify:
    def test_valid_signature_verifies(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"transfer-payload"
            response = await client.verify(
                "host-001", message, _sign("host-001", message)
            )
            assert response["verdict"] is True
            assert response["cache_hit"] is False

        _run_with_service(config, body)

    def test_corrupted_signature_fails(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"transfer-payload"
            signature = _sign("host-001", message).to_canonical()
            signature["s"] += 1
            response = await client.verify("host-001", message, signature)
            assert response["verdict"] is False

        _run_with_service(config, body)

    def test_unknown_signer_fails_closed(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"whatever"
            response = await client.verify(
                "not-a-registered-host", message,
                _sign("not-a-registered-host", message),
            )
            assert response["verdict"] is False
            assert response["reason"] == "unknown-signer"

        _run_with_service(config, body)

    def test_batched_requests_get_individual_verdicts(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            good = b"good-message"
            bad = b"bad-message"
            forged = _sign("host-002", bad).to_canonical()
            forged["s"] += 1
            responses = await asyncio.gather(*(
                [client.verify("host-001", good, _sign("host-001", good))
                 for _ in range(3)]
                + [client.verify("host-002", bad, forged)]
            ))
            assert [r["verdict"] for r in responses] == [
                True, True, True, False,
            ]

        _run_with_service(config, body)


class TestCache:
    def test_repeat_verification_is_served_from_cache(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"cached-message"
            signature = _sign("host-001", message)
            first = await client.verify("host-001", message, signature)
            second = await client.verify("host-001", message, signature)
            assert first["cache_hit"] is False
            assert second["cache_hit"] is True
            assert second["verdict"] is True

        _run_with_service(config, body)

    def test_cache_never_aliases_across_differing_digests(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"message-A"
            signature = _sign("host-001", message)
            cached = await client.verify("host-001", message, signature)
            assert cached["verdict"] is True
            # The same (valid) signature presented for a DIFFERENT
            # message must be a cache miss and must fail verification —
            # a stale cached True here would be a forgery vector.
            other = await client.verify("host-001", b"message-B", signature)
            assert other["cache_hit"] is False
            assert other["verdict"] is False

        _run_with_service(config, body)

    def test_cache_disabled_still_answers(self):
        config = ServiceConfig(fleet_hosts=4, cache_entries=0)

        async def body(service, client):
            message = b"m"
            signature = _sign("host-001", message)
            for _ in range(2):
                response = await client.verify("host-001", message, signature)
                assert response["verdict"] is True
                assert response["cache_hit"] is False

        _run_with_service(config, body)


async def _busy_endpoint(reason):
    """A stand-in endpoint that sheds every request but ``ping`` with a
    typed ``busy`` answer; returns the server and its address."""

    async def handle(reader, writer):
        while True:
            body = await read_frame(reader)
            if body is None:
                break
            request = decode_body(body)
            response = {"id": request.get("id"), "status": "ok"}
            if request.get("op") != "ping":
                response.update(status="busy", reason=reason)
            writer.write(encode_frame(response))
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


class TestBackpressure:
    def test_a_full_frame_settles_every_item_and_never_sheds(self):
        # The verifier settles each item of a frame inline as it is
        # read, so there is no queue to fill: all 12 items of one
        # verify-batch frame come back ok, and nothing is shed.
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"pressured"
            signature = _sign("host-001", message)
            results = await asyncio.wait_for(
                client.verify_batch([
                    {"signer": "host-001", "message": message,
                     "signature": signature}
                    for _ in range(12)
                ]),
                timeout=10.0,
            )
            assert [r["status"] for r in results] == ["ok"] * 12
            assert all(r["verdict"] is True for r in results)
            assert [r["cache_hit"] for r in results] == [False] + [True] * 11
            assert service.counters.busy == 0
            assert service.stats()["batching"]["items"] == 1

        _run_with_service(config, body)

    def test_typed_busy_raises_through_the_checked_client(self):
        async def run():
            server, address = await _busy_endpoint(
                "verification queue is full (1 in flight)"
            )
            client = await ServiceClient.connect(*address)
            try:
                message = b"pressured"
                with pytest.raises(ServiceUnavailable) as excinfo:
                    await client.verify("host-001", message,
                                        _sign("host-001", message))
                assert "queue is full" in str(excinfo.value)
                # The unchecked request hands the typed answer back,
                # and the connection keeps serving after a shed.
                response = await client.request({"op": "verify"})
                assert response["status"] == "busy"
                assert await client.ping()
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())


@asynccontextmanager
async def _verifier_endpoint(max_frame=MAX_FRAME_BYTES):
    """A started verifier."""
    service = VerificationService(ServiceConfig(fleet_hosts=4,
                                                max_frame=max_frame))
    await service.start()
    try:
        yield service
    finally:
        await service.stop()


@asynccontextmanager
async def _gateway_endpoint(max_frame=MAX_FRAME_BYTES):
    """A started gateway in front of one verifier, on this loop."""
    backend = VerificationService(ServiceConfig(fleet_hosts=4))
    gateway = ClusterGateway(ClusterConfig(
        backends=(await backend.start(),),
        health_interval=30.0, max_frame=max_frame,
    ))
    await gateway.start()
    try:
        yield gateway
    finally:
        await gateway.stop()
        await backend.stop()


class TestMalformedTraffic:
    """Frame errors and bad requests against a verifier endpoint.

    :class:`TestGatewayMalformedTraffic` reruns every test here against
    a cluster gateway: both roles share one frame server, and these
    tests pin that they answer hostile traffic identically.
    """

    role = "verifier"
    endpoint = staticmethod(_verifier_endpoint)

    @staticmethod
    def unstarted(max_frame):
        return VerificationService(ServiceConfig(fleet_hosts=2,
                                                 max_frame=max_frame))

    def test_malformed_frame_gets_typed_error_and_stream_survives(self):
        async def run():
            async with self.endpoint() as endpoint:
                reader, writer = await asyncio.open_connection(
                    *endpoint.address
                )
                garbage = b"\x99not canonical at all"
                writer.write(len(garbage).to_bytes(4, "big") + garbage)
                writer.write(encode_frame({"id": 7, "op": "ping"}))
                await writer.drain()
                first = decode_body(await read_frame(reader))
                second = decode_body(await read_frame(reader))
                assert first["status"] == "error"
                assert first["error"] == "malformed-frame"
                assert endpoint.counters.frames_rejected_malformed == 1
                # The connection survived and served the next frame
                # (a wire/2 ping: the hello advertisement rides along).
                assert second["id"] == 7
                assert second["status"] == "ok"
                assert second["wire"] == "wire/2"
                assert second["role"] == self.role
                assert isinstance(second["instance"], str)
                writer.close()

        asyncio.run(run())

    def test_oversized_frame_is_rejected_before_decode(self):
        async def run():
            async with self.endpoint(max_frame=1024) as endpoint:
                reader, writer = await asyncio.open_connection(
                    *endpoint.address
                )
                # Declare a huge body but never send it: the server must
                # answer from the header alone (nothing to decode), then
                # close the connection.
                writer.write((1 << 20).to_bytes(4, "big"))
                await writer.drain()
                response = decode_body(await read_frame(reader))
                assert response["status"] == "error"
                assert response["error"] == "frame-too-large"
                assert endpoint.counters.frames_rejected_oversize == 1
                assert await read_frame(reader) is None
                writer.close()

        asyncio.run(run())

    def test_truncated_frame_closes_quietly_and_server_survives(self):
        async def run():
            async with self.endpoint() as endpoint:
                host, port = endpoint.address
                _, writer = await asyncio.open_connection(host, port)
                frame = encode_frame({"op": "ping", "id": 1})
                writer.write(frame[:len(frame) - 2])
                await writer.drain()
                writer.close()
                await asyncio.sleep(0.05)
                assert endpoint.counters.frames_truncated == 1
                # A fresh connection still works.
                client = await ServiceClient.connect(host, port)
                assert await client.ping()
                await client.close()

        asyncio.run(run())

    def test_unframeable_response_degrades_to_typed_error(self):
        # A response the server cannot frame (here: the echoed id alone
        # blows past max_frame) must degrade into a small typed error
        # response — the client always gets an answer for the id, never
        # silence.
        endpoint = self.unstarted(max_frame=64)

        class _Writer:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(data)

        writer = _Writer()
        endpoint._write(writer, {"id": 1, "status": "ok",
                                 "blob": b"x" * 500})
        frames = split_frames(b"".join(writer.chunks))
        assert len(frames) == 1
        assert frames[0]["status"] == "error"
        assert frames[0]["error"] == "response-too-large"
        assert frames[0]["id"] == 1
        assert endpoint.counters.errors == 1

    def test_request_on_a_dead_connection_fails_fast(self):
        # Once the server is gone, a pooled connection must raise
        # instead of registering a future nothing will ever resolve
        # (writes to closed transports are silently discarded).
        async def run():
            async with self.endpoint() as endpoint:
                client = await ServiceClient.connect(*endpoint.address)
                try:
                    assert await client.ping()
                    await endpoint.stop()
                    await asyncio.sleep(0.05)  # reader observes the EOF
                    with pytest.raises(ServiceError):
                        await asyncio.wait_for(
                            client.request({"op": "ping"}), timeout=5.0
                        )
                finally:
                    await client.close()

        asyncio.run(run())

    def test_unknown_op_and_malformed_request_are_typed_errors(self):
        async def run():
            async with self.endpoint() as endpoint:
                client = await ServiceClient.connect(*endpoint.address)
                try:
                    with pytest.raises(ServiceResponseError):
                        await client.request_checked({"op": "explode"})
                    with pytest.raises(ServiceResponseError):
                        await client.request_checked({"op": "verify",
                                                      "signer": 5})
                    # and a non-mapping request
                    response = await client.request({
                        "op": "verify", "message": "not-bytes",
                        "signer": "host-001", "signature": {},
                    })
                    assert response["status"] == "error"
                    # An unhashable op is answered, not dropped.
                    response = await asyncio.wait_for(
                        client.request({"op": ["verify"]}), timeout=5.0
                    )
                    assert response["error"] == "unknown-op"
                finally:
                    await client.close()

        asyncio.run(run())


class TestGatewayMalformedTraffic(TestMalformedTraffic):
    role = "gateway"
    endpoint = staticmethod(_gateway_endpoint)

    @staticmethod
    def unstarted(max_frame):
        return ClusterGateway(ClusterConfig(backends=(("127.0.0.1", 9),),
                                            max_frame=max_frame))


class TestCounterNames:
    """Each role's ``stats()["counters"]``: the counters the frame
    server keeps for both roles, plus the role's own."""

    SHARED = {
        "connections", "requests", "verify_requests", "batch_requests",
        "session_requests", "cache_hits", "busy", "errors",
        "frames_rejected_oversize", "frames_rejected_malformed",
        "frames_truncated",
    }

    def test_verifier_counter_names(self):
        service = VerificationService(ServiceConfig(fleet_hosts=2))
        assert set(service.stats()["counters"]) == self.SHARED | {
            "verdicts_true", "verdicts_false",
        }

    def test_gateway_counter_names(self):
        gateway = ClusterGateway(ClusterConfig(backends=(("127.0.0.1", 9),)))
        assert set(gateway.stats()["counters"]) == self.SHARED | {
            "dedup_hits", "failovers", "reissues", "holds",
            "held_shed", "no_backend", "restarts_detected",
            "invalidated_verdicts",
        }


class TestOps:
    def test_service_keystore_covers_the_fleet_population(self):
        keystore = build_service_keystore(3, extra_principals=("owner",))
        assert "home" in keystore
        assert "host-001" in keystore and "host-003" in keystore
        assert "host-004" not in keystore
        assert "owner" in keystore

    def test_stats_op_reports_counters_cache_and_batching(self):
        config = ServiceConfig(fleet_hosts=4)

        async def body(service, client):
            message = b"m"
            await client.verify("host-001", message,
                                _sign("host-001", message))
            stats = await client.stats()
            assert stats["counters"]["verify_requests"] == 1
            assert stats["counters"]["verdicts_true"] == 1
            # Each settled signature is its own window, with no wait.
            assert stats["batching"] == {
                "items": 1, "batches": 1, "queue_wait_total": 0.0,
            }
            assert stats["cache"]["entries"] == 1
            assert "max_batch" not in stats["config"]

        _run_with_service(config, body)

    def test_stats_op_names_the_crypto_backend(self):
        # Loadgen artifacts embed this block so every recorded number is
        # attributable to the engine that produced it.
        import repro.crypto.backend as backend_mod

        config = ServiceConfig(fleet_hosts=4, backend="python")

        async def body(service, client):
            assert service.backend.name == "python"
            stats = await client.stats()
            assert stats["crypto"] == {"backend": "python"}
            assert stats["config"]["backend"] == "python"

        previous = backend_mod._active
        try:
            _run_with_service(config, body)
        finally:
            backend_mod._active = previous

    def test_service_thread_runs_from_sync_code(self):
        with ServiceThread(ServiceConfig(fleet_hosts=4)) as thread:
            host, port = thread.service.address

            async def roundtrip():
                client = await ServiceClient.connect(host, port)
                try:
                    message = b"threaded"
                    response = await client.verify(
                        "host-001", message, _sign("host-001", message)
                    )
                    return response["verdict"]
                finally:
                    await client.close()

            assert asyncio.run(roundtrip()) is True
