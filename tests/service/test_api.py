"""The public facade: connect(), endpoint shapes, negotiation, shims."""

from __future__ import annotations

import asyncio
import warnings

import pytest

from repro.crypto.keys import Identity
from repro.exceptions import ConfigurationError, WireVersionMismatch
from repro.service.api import Verifier, connect, resolve_endpoint
from repro.service.server import ServiceConfig, ServiceThread
from repro.service.wire import (
    WIRE_MAJOR,
    WIRE_VERSION,
    check_wire_version,
    encode_frame,
    parse_wire_version,
    read_frame,
    decode_body,
)


class TestResolveEndpoint:
    def test_host_port_string(self):
        assert resolve_endpoint("127.0.0.1:7753") == ("127.0.0.1", 7753)

    def test_host_port_tuple_and_list(self):
        assert resolve_endpoint(("localhost", 80)) == ("localhost", 80)
        assert resolve_endpoint(["localhost", "80"]) == ("localhost", 80)

    def test_object_with_bound_address(self):
        class Endpoint:
            address = ("10.0.0.1", 1234)

        assert resolve_endpoint(Endpoint()) == ("10.0.0.1", 1234)

    def test_bare_host_is_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_endpoint("localhost")

    def test_wrong_tuple_arity_is_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_endpoint(("host", 1, 2))

    def test_unsupported_shape_is_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_endpoint(7753)


class TestWireNegotiation:
    def test_absent_advertisement_is_wire_1(self):
        assert parse_wire_version(None) == 1

    def test_current_advertisement_parses(self):
        assert parse_wire_version(WIRE_VERSION) == WIRE_MAJOR

    def test_garbage_advertisement_is_a_typed_mismatch(self):
        for garbage in ("wire/", "wire/x", "v2", 2, b"wire/2"):
            with pytest.raises(WireVersionMismatch):
                parse_wire_version(garbage)

    def test_check_refuses_other_majors(self):
        assert check_wire_version(WIRE_VERSION) == WIRE_MAJOR
        with pytest.raises(WireVersionMismatch):
            check_wire_version("wire/%d" % (WIRE_MAJOR + 1))
        with pytest.raises(WireVersionMismatch):
            check_wire_version(None)  # a wire/1 peer


async def _fake_server(ping_response_extra):
    """A minimal framed server whose ping carries ``extra`` fields."""

    async def handle(reader, writer):
        while True:
            body = await read_frame(reader)
            if body is None:
                break
            request = decode_body(body)
            response = {"id": request.get("id"), "status": "ok"}
            response.update(ping_response_extra)
            writer.write(encode_frame(response))
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


class TestConnect:
    def test_connect_to_a_service_thread_endpoint(self):
        async def run():
            with ServiceThread(ServiceConfig()) as thread:
                verifier = await connect(thread)
                try:
                    identity = Identity.generate("host-001")
                    message = b"reference state"
                    signature = identity.private_key.sign_recoverable(
                        message
                    )
                    response = await verifier.verify(
                        "host-001", message, signature
                    )
                    assert response["verdict"] is True
                    assert isinstance(verifier, Verifier)
                finally:
                    await verifier.close()

        asyncio.run(run())

    def test_connect_refuses_a_wire_1_server(self):
        async def run():
            server, address = await _fake_server({})  # no "wire" field
            try:
                with pytest.raises(WireVersionMismatch):
                    await connect(address, retry_timeout=2.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_connect_refuses_a_future_major(self):
        async def run():
            server, address = await _fake_server({"wire": "wire/99"})
            try:
                with pytest.raises(WireVersionMismatch):
                    await connect(address, retry_timeout=2.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_negotiation_can_be_disabled_for_legacy_peers(self):
        async def run():
            server, address = await _fake_server({})
            try:
                client = await connect(
                    address, retry_timeout=2.0, negotiate=False
                )
                assert await client.ping()
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())


class TestPublicSurface:
    def test_stable_entry_points_reexported_from_repro(self):
        import repro
        import repro.service

        assert repro.connect is repro.service.connect
        assert repro.Verifier is repro.service.Verifier
        assert repro.ServiceConfig is repro.service.ServiceConfig
        assert repro.ClusterConfig is repro.service.ClusterConfig

    def test_removed_shims_raise_attribute_error(self):
        # The package-level deprecation shims are gone: the old names
        # are neither advertised nor resolvable from ``repro.service``.
        import repro.service as service

        for name in ("ServiceClient", "connect_with_retry",
                     "ServiceResponseError"):
            assert name not in service.__all__
            with pytest.raises(AttributeError):
                getattr(service, name)

    def test_implementation_module_imports_stay_warning_free(self):
        # Internal call sites import from repro.service.client directly,
        # and that import stays warning-free.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.service.client import ServiceClient  # noqa: F401
        assert not any(
            issubclass(warning.category, DeprecationWarning)
            for warning in caught
        )


class TestStatsEnvelopeParity:
    """Satellite: every service-tier endpoint answers ``stats`` with
    the same schema-versioned envelope (``repro.obs.STATS_SCHEMA``),
    so dashboards and the loadgen's ``--metrics-out`` snapshot can
    consume a verifier and a gateway interchangeably."""

    SHARED_KEYS = {"schema", "role", "instance", "wire", "counters",
                   "telemetry", "config"}

    def _assert_envelope(self, stats, role):
        from repro.obs import STATS_SCHEMA, TELEMETRY_SCHEMA

        missing = self.SHARED_KEYS - set(stats)
        assert not missing, "%s stats missing %s" % (role, sorted(missing))
        assert stats["schema"] == STATS_SCHEMA
        assert stats["role"] == role
        assert stats["wire"] == WIRE_VERSION
        assert isinstance(stats["counters"], dict)
        assert stats["telemetry"]["schema"] == TELEMETRY_SCHEMA
        assert isinstance(stats["config"], dict)

    def test_verifier_and_gateway_share_one_envelope(self):
        from repro.service.cluster import ClusterConfig, ClusterGateway
        from repro.service.server import VerificationService

        async def run():
            service = VerificationService(
                ServiceConfig(fleet_hosts=4)
            )
            address = await service.start()
            gateway = ClusterGateway(ClusterConfig(
                backends=(address,), health_interval=30.0,
            ))
            await gateway.start()
            client = await connect(gateway)
            try:
                identity = Identity.generate("host-001")
                message = b"parity probe"
                await client.verify(
                    "host-001", message,
                    identity.private_key.sign_recoverable(message),
                )

                self._assert_envelope(service.stats(), "verifier")
                self._assert_envelope(gateway.stats(), "gateway")

                # The same envelope travels over the wire "stats" op.
                over_wire = await client.stats()
                self._assert_envelope(over_wire, "gateway")
                assert over_wire["counters"]["verify_requests"] >= 1
            finally:
                await client.close()
                await gateway.stop()
                await service.stop()

        asyncio.run(run())

    def test_service_thread_exposes_the_hosted_envelope(self):
        with ServiceThread(ServiceConfig()) as thread:
            stats = thread.stats()
        self._assert_envelope(stats, "verifier")


class TestSlotSelfHealing:
    def test_client_redials_a_dead_slot_after_server_restart(self):
        """A pooled connection killed by a backend restart is re-dialed
        transparently by the slot it lives in — the same client object
        keeps serving requests against the reborn server."""
        from repro.service.server import VerificationService

        async def run():
            service = VerificationService(ServiceConfig(fleet_hosts=4))
            host, port = await service.start()
            client = await connect((host, port))
            try:
                before = await client.hello()
                assert before["role"] == "verifier"

                await service.stop()
                reborn = VerificationService(
                    ServiceConfig(fleet_hosts=4, host=host, port=port)
                )
                assert (await reborn.start()) == (host, port)
                try:
                    # Let the pooled connection's reader observe EOF so
                    # the slot is provably dead, not merely suspect.
                    await asyncio.sleep(0.05)
                    after = await client.hello()
                    assert after["role"] == "verifier"
                    assert after["instance"] != before["instance"]
                finally:
                    await reborn.stop()
            finally:
                await client.close()

        asyncio.run(run())
