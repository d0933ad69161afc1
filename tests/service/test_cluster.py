"""The cluster gateway: routing, caching, failover, idempotency."""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import gc
import importlib

import pytest

from repro import service as service_package
from repro.crypto.keys import Identity
from repro.exceptions import ConfigurationError, ServiceError
from repro.service.api import connect
from repro.service import cluster as cluster_module
from repro.service.__main__ import _build_parser
from repro.service.batching import MicroBatcher
from repro.service.cluster import (
    ClusterConfig,
    ClusterGateway,
    LocalCluster,
    spawn_verifier,
)
from repro.service.health import HealthMonitor
from repro.service.server import ServiceConfig, VerificationService

_IDENTITY = Identity.generate("host-001")


def _signed(count, prefix=b"m"):
    messages = [prefix + b"-%d" % index for index in range(count)]
    return [
        (message, _IDENTITY.private_key.sign_recoverable(message))
        for message in messages
    ]


async def _start_cluster(num_backends=2, **overrides):
    """In-loop cluster: N real servers + a gateway, one event loop."""
    backends = [
        VerificationService(ServiceConfig(fleet_hosts=8))
        for _ in range(num_backends)
    ]
    addresses = [await backend.start() for backend in backends]
    settings = {
        "backends": tuple(addresses),
        # Long probe interval: these tests drive health transitions
        # deterministically through the request path, not timers.
        "health_interval": 30.0,
    }
    settings.update(overrides)
    gateway = ClusterGateway(ClusterConfig(**settings))
    await gateway.start()
    client = await connect(gateway)
    return backends, gateway, client


async def _teardown(backends, gateway, client):
    await client.close()
    await gateway.stop()
    for backend in backends:
        await backend.stop()


class TestRoutingAndCaching:
    def test_verdicts_match_and_spread_across_backends(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                responses = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for message, signature in _signed(40)
                ))
                assert all(r["verdict"] is True for r in responses)
                used = {r["backend"] for r in responses}
                assert len(used) == 2  # both backends took traffic
                # Every backend saw real work.
                assert all(b.counters.verify_requests > 0
                           for b in backends)
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_repeat_requests_hit_the_gateway_cache(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                message, signature = _signed(1)[0]
                first = await client.verify("host-001", message, signature)
                assert not first.get("cache_hit")
                second = await client.verify("host-001", message, signature)
                assert second["cache_hit"] is True
                assert second["tier"] == "gateway-cache"
                assert second["verdict"] is first["verdict"]
                assert gateway.counters.cache_hits == 1
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_invalid_signature_verdicts_pass_through(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                message, signature = _signed(1, prefix=b"x")[0]
                response = await client.verify(
                    "host-001", b"a different message", signature
                )
                assert response["verdict"] is False
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_gateway_pings_as_a_gateway(self):
        async def run():
            backends, gateway, client = await _start_cluster(1)
            try:
                hello = await client.hello()
                assert hello["role"] == "gateway"
                assert hello["wire"] == "wire/2"
                stats = await client.stats()
                assert stats["role"] == "gateway"
                assert sorted(stats["ring"]["nodes"]) == sorted(
                    stats["ring"]["up"]
                )
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())


class TestIdempotency:
    def test_concurrent_duplicates_collapse_to_one_settlement(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                message, signature = _signed(1, prefix=b"dup")[0]
                responses = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for _ in range(10)
                ))
                verdicts = [r["verdict"] for r in responses]
                assert verdicts == [True] * 10  # none lost, none wrong
                # One settlement reached a backend; the other nine were
                # deduplicated in flight or served from the cache.
                settled = sum(b.counters.verify_requests for b in backends)
                assert settled == 1
                assert (gateway.counters.dedup_hits
                        + gateway.counters.cache_hits) == 9
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())


class TestFailover:
    def test_dead_backend_requests_are_reissued_not_lost(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                await backends[0].stop()  # dies before the burst
                responses = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for message, signature in _signed(30, prefix=b"f")
                ))
                # Zero lost, zero wrong: every request settled with the
                # correct verdict despite half the ring being dead.
                assert [r["verdict"] for r in responses] == [True] * 30
                assert gateway.counters.failovers > 0
                assert gateway.counters.reissues > 0
                # The dead backend is marked down after the first
                # request-path failure.
                assert len(gateway.monitor.up_backends()) == 1
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_mid_flight_death_loses_nothing(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                # Backend 0 stops while the first window is in flight:
                # the shipment has left the gateway's window, and no
                # answer has come back yet.
                ship = gateway._ship
                stopped = []

                async def ship_then_stop(name, items):
                    shipment = asyncio.ensure_future(ship(name, items))
                    if not stopped:
                        stopped.append(name)
                        await backends[0].stop()
                    return await shipment

                for name, batcher in gateway._batchers.items():
                    batcher.settle = functools.partial(ship_then_stop, name)
                responses = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for message, signature in _signed(40, prefix=b"mid")
                ))
                assert stopped
                assert [r["verdict"] for r in responses] == [True] * 40
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_all_backends_down_is_a_typed_refusal(self):
        async def run():
            backends, gateway, client = await _start_cluster(
                2, max_attempts=3
            )
            try:
                for backend in backends:
                    await backend.stop()
                message, signature = _signed(1, prefix=b"down")[0]
                response = await client.request({
                    "op": "verify", "signer": "host-001",
                    "message": message,
                    "signature": signature.to_canonical(),
                })
                assert response["status"] == "error"
                assert response["error"] == "no-backend"
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_all_backends_down_session_check_counts_no_backend(self):
        # A refused check-session is accounted like a refused verify:
        # exactly one no_backend per request the gateway turns away.
        async def run():
            backends, gateway, client = await _start_cluster(
                2, max_attempts=3
            )
            try:
                for backend in backends:
                    await backend.stop()
                # Mark both backends down through the request path.
                message, signature = _signed(1, prefix=b"gone")[0]
                await client.request({
                    "op": "verify", "signer": "host-001",
                    "message": message,
                    "signature": signature.to_canonical(),
                })
                before = gateway.counters.no_backend
                response = await client.request({
                    "op": "check-session",
                    "prev_session": {},
                    "observed_state": {},
                    "checking_host": "home",
                })
                assert response["status"] == "error"
                assert response["error"] == "no-backend"
                assert gateway.counters.no_backend == before + 1
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_session_checks_fail_over_too(self):
        async def run():
            backends, gateway, client = await _start_cluster(2)
            try:
                await backends[1].stop()
                response = await client.request({
                    "op": "check-session",
                    "prev_session": {},
                    "observed_state": {},
                    "checking_host": "home",
                })
                # The surviving backend answered (a malformed-session
                # *verdict or typed error*, but an answer — the request
                # was never dropped by the gateway).
                assert response.get("status") in ("ok", "error")
                assert response.get("error") != "no-backend"
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_session_fields_are_encoded_once_per_check(self):
        # The ring key and the forwarded frame share one encoding of
        # each large field.
        class Counted:
            encodes = 0

            def to_canonical(self):
                Counted.encodes += 1
                return {"agent_id": "fleet/j00001"}

        async def run():
            backends, gateway, client = await _start_cluster(1)
            try:
                response = await gateway._handle_session(7, {
                    "op": "check-session",
                    "prev_session": Counted(),
                    "observed_state": Counted(),
                    "checking_host": "home",
                })
                assert response["id"] == 7
                assert response.get("error") != "no-backend"
                assert Counted.encodes == 2
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())


def _freeze_hold_clock(monkeypatch):
    """Stop the clock the gateway's monitor times holds with, so a hold
    never runs out while a test still relies on it."""
    monkeypatch.setattr(cluster_module, "HealthMonitor", functools.partial(
        HealthMonitor, clock=lambda: 1000.0
    ))


class TestBackendHolds:
    def test_flapping_backend_is_shed_not_reprobed(self, monkeypatch):
        """A verifier that passes health probes but fails real requests
        must be held out of routing: traffic keeps flowing through the
        survivor with zero lost or wrong verdicts and zero failover
        round trips, even while its probes say the flapper is up."""
        _freeze_hold_clock(monkeypatch)

        async def run():
            backends, gateway, client = await _start_cluster(
                2, failure_threshold=1
            )
            try:
                await backends[0].stop()  # fails requests from now on
                first = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for message, signature in _signed(20, prefix=b"flap1")
                ))
                assert [r["verdict"] for r in first] == [True] * 20
                # One window failed as a whole; its first failure started
                # the hold, and the rest of the window could not stack.
                assert gateway.counters.holds == 1
                (flapper,) = (set(gateway.ring.nodes)
                              - set(gateway.monitor.up_backends()))
                (survivor,) = set(gateway.ring.nodes) - {flapper}
                # The flap: a probe sneaks through and the monitor
                # marks the backend up again — requests would fail.
                gateway.monitor.record_success(flapper, {})
                assert flapper in gateway.monitor.up_backends()
                assert gateway.monitor.avoid() == ([flapper], 1)

                failovers_before = gateway.counters.failovers
                shed_before = gateway.counters.held_shed
                second = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for message, signature in _signed(20, prefix=b"flap2")
                ))
                # Zero lost, zero duplicated, zero wrong: one correct
                # verdict per request, all from the survivor, and not a
                # single failover burned on re-probing the flapper.
                assert [r["verdict"] for r in second] == [True] * 20
                assert {r["backend"] for r in second} == {survivor}
                assert gateway.counters.failovers == failovers_before
                assert gateway.counters.held_shed >= shed_before + 20
                assert flapper in gateway.monitor.up_backends()

                stats = await client.stats()
                held = stats["health"]["backends"][flapper]
                assert held["up"] is True and held["held"] is True
                assert held["holds"] == 1
                assert stats["counters"]["holds"] == 1
                assert stats["health"]["backends"][survivor]["held"] is False
                assert "breakers" not in stats
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())

    def test_with_every_backend_held_requests_still_route(self,
                                                          monkeypatch):
        """Holds never shed the last routable backend: with every
        backend held, routing falls back to probe health."""
        _freeze_hold_clock(monkeypatch)

        async def run():
            backends, gateway, client = await _start_cluster(
                2, failure_threshold=1
            )
            try:
                for name in gateway.ring.nodes:
                    assert gateway.monitor.record_request_failure(name)
                    gateway.monitor.record_success(name, {})
                assert gateway.monitor.avoid() == ([], 0)

                responses = await asyncio.gather(*(
                    client.verify("host-001", message, signature)
                    for message, signature in _signed(20, prefix=b"held")
                ))
                assert [r["verdict"] for r in responses] == [True] * 20
                assert {r["backend"] for r in responses} == set(
                    gateway.ring.nodes
                )
                assert gateway.counters.no_backend == 0
                assert gateway.counters.held_shed == 0
                stats = await client.stats()
                assert all(state["held"] for state
                           in stats["health"]["backends"].values())
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())


class TestRestartInvalidation:
    def test_backend_restart_invalidates_its_tagged_verdicts(self):
        async def run():
            backends, gateway, client = await _start_cluster(1)
            try:
                name = gateway.ring.nodes[0]
                pairs = _signed(5, prefix=b"inv")
                for message, signature in pairs:
                    await client.verify("host-001", message, signature)
                assert len(gateway.cache) == 5
                # A new process announces a new instance id behind the
                # same address: the monitor reports a restart and the
                # gateway sweeps that backend's cached verdicts.
                gateway.monitor.record_success(
                    name, {"instance": "a-new-process"}
                )
                assert len(gateway.cache) == 0
                assert gateway.counters.restarts_detected == 1
                assert gateway.counters.invalidated_verdicts == 5
                # The stream re-verifies cleanly after the sweep — and
                # the answer was dispatched to the backend again (it
                # may hit the *backend's* cache, but not the swept
                # gateway tier).
                response = await client.verify("host-001", *pairs[0])
                assert response["verdict"] is True
                assert response.get("tier") != "gateway-cache"
                assert response["backend"] == name
            finally:
                await _teardown(backends, gateway, client)

        asyncio.run(run())


class TestConfiguration:
    def test_gateway_requires_backends(self):
        with pytest.raises(ConfigurationError):
            ClusterGateway(ClusterConfig())

    def test_local_cluster_requires_a_verifier(self):
        with pytest.raises(ConfigurationError):
            LocalCluster(verifiers=0)


def _spawned_command(monkeypatch, config):
    """The argv ``spawn_verifier(config)`` would launch, not launched."""
    launched = []

    def capture(command, **kwargs):
        launched.append(command)
        raise OSError("not launched")

    monkeypatch.setattr(cluster_module.subprocess, "Popen", capture)
    with pytest.raises(OSError):
        spawn_verifier(config)
    (command,) = launched
    return command


class TestNoTableCacheKnobs:
    """Fixed-base tables are built in-process from the key alone, so no
    command or constructor takes a table-cache location any more."""

    @pytest.mark.parametrize("command", ("serve", "spawn-cluster"))
    def test_the_table_cache_option_is_rejected(self, command, capsys):
        parser = _build_parser()
        assert parser.parse_args([command]).command == command
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, "--table-cache", "off"])
        assert excinfo.value.code == 2
        assert "--table-cache" in capsys.readouterr().err

    @pytest.mark.parametrize("factory", (spawn_verifier, LocalCluster),
                             ids=("spawn_verifier", "LocalCluster"))
    def test_constructors_take_no_table_cache(self, factory):
        with pytest.raises(TypeError):
            factory(table_cache="off")

    def test_spawned_verifier_command_names_no_table_cache(self,
                                                           monkeypatch):
        command = _spawned_command(
            monkeypatch, ServiceConfig(fleet_hosts=4, backend="python")
        )
        assert command[1:4] == ["-m", "repro.service", "serve"]
        assert command[-2:] == ["--backend", "python"]
        assert not any("table-cache" in part for part in command)


class TestNoBreakerKnobs:
    """The health monitor is the one routing state machine: the circuit
    breaker and its tuning knobs are gone."""

    @pytest.mark.parametrize("command", (
        ["cluster", "--backends", "127.0.0.1:7753"], ["spawn-cluster"],
    ), ids=("cluster", "spawn-cluster"))
    @pytest.mark.parametrize("flag", (
        "--breaker-threshold", "--breaker-cooldown",
    ))
    def test_the_breaker_options_are_rejected(self, command, flag, capsys):
        parser = _build_parser()
        assert parser.parse_args(command).command == command[0]
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(command + [flag, "3"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_the_cluster_config_has_no_breaker_fields(self):
        names = [f.name for f in dataclasses.fields(ClusterConfig)]
        assert len(names) == 12
        assert not any(name.startswith("breaker") for name in names)
        with pytest.raises(TypeError):
            ClusterConfig(breaker_threshold=3)

    def test_the_breaker_module_and_exports_are_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.service.breaker")
        for name in ("CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"):
            assert not hasattr(service_package, name)
            assert name not in service_package.__all__


class TestNoDelayKnobs:
    """Batch windows close at the end of the event-loop tick, so no
    command, config or batcher takes a window delay any more."""

    @pytest.mark.parametrize("command, flag", (
        (["serve"], "--max-delay-ms"),
        (["spawn-cluster"], "--max-delay-ms"),
        (["cluster", "--backends", "127.0.0.1:7753"], "--gather-delay-ms"),
        (["spawn-cluster"], "--gather-delay-ms"),
    ), ids=("serve-max", "spawn-max", "cluster-gather", "spawn-gather"))
    def test_the_delay_options_are_rejected(self, command, flag, capsys):
        parser = _build_parser()
        assert parser.parse_args(command).command == command[0]
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(command + [flag, "2"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_the_configs_have_no_delay_fields(self):
        assert len(dataclasses.fields(ServiceConfig)) == 7
        with pytest.raises(TypeError):
            ServiceConfig(max_delay=0.002)
        with pytest.raises(TypeError):
            ClusterConfig(gather_delay=0.001)
        with pytest.raises(TypeError):
            MicroBatcher(list, max_batch=4, max_delay=0.002)

    def test_no_stats_block_reports_a_delay(self):
        verifier = VerificationService(ServiceConfig(fleet_hosts=4))
        gateway = ClusterGateway(ClusterConfig(backends=(("127.0.0.1", 1),)))
        for stats in (verifier.stats(), gateway.stats()):
            assert not any("delay" in key for key in stats["config"])
        assert "max_delay" not in verifier.stats()["batching"]
        for aggregation in gateway.stats()["aggregation"].values():
            assert "max_delay" not in aggregation

    def test_spawned_verifier_command_names_no_delay(self, monkeypatch):
        command = _spawned_command(monkeypatch, ServiceConfig(fleet_hosts=4))
        assert not any("delay" in part for part in command)


class TestNoVerifierBatchKnobs:
    """The verifier settles every signature inline, one by one, so no
    command or config takes a verifier batch window or queue bound."""

    @pytest.mark.parametrize("command", ("serve", "spawn-cluster"))
    @pytest.mark.parametrize("flag", ("--max-batch", "--max-queue"))
    def test_the_batch_options_are_rejected(self, command, flag, capsys):
        parser = _build_parser()
        assert parser.parse_args([command]).command == command
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, flag, "8"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("field", ("max_batch", "max_queue"))
    def test_the_service_config_has_no_batch_fields(self, field):
        assert field not in {f.name for f in dataclasses.fields(ServiceConfig)}
        with pytest.raises(TypeError):
            ServiceConfig(**{field: 8})

    def test_the_verifier_reports_no_batch_knob_or_queue(self):
        stats = VerificationService(ServiceConfig(fleet_hosts=4)).stats()
        assert not {"max_batch", "max_queue"} & set(stats["config"])
        assert "inflight" not in stats
        assert not any("queue_wait" in name or "batch_size" in name
                       for name in stats["telemetry"]["histograms"])

    def test_spawned_verifier_command_names_no_batch_knob(self, monkeypatch):
        command = _spawned_command(monkeypatch, ServiceConfig(fleet_hosts=4))
        assert "--max-batch" not in command and "--max-queue" not in command

    def test_the_gateway_keeps_its_shipment_windows(self):
        gateway = ClusterGateway(ClusterConfig(
            backends=(("127.0.0.1", 1),), gather_batch=16,
        ))
        (batcher,) = gateway._batchers.values()
        assert isinstance(batcher, MicroBatcher)
        assert batcher.max_batch == 16
        assert gateway.stats()["config"]["gather_batch"] == 16


class TestSpawnFailure:
    def test_a_verifier_that_misses_its_startup_deadline_leaks_nothing(
            self, recwarn):
        # The child is killed and reaped, and its stdout pipe closed,
        # before the error is raised: nothing is left for the garbage
        # collector to warn about.
        with pytest.raises(ServiceError, match="did not announce"):
            spawn_verifier(ServiceConfig(), startup_timeout=0)
        gc.collect()
        leaks = [str(warning.message) for warning in recwarn.list
                 if issubclass(warning.category, ResourceWarning)]
        assert leaks == []


class TestLocalCluster:
    def test_spawned_cluster_survives_a_sigkill(self, tmp_path, monkeypatch):
        # The full deployment shape: real verifier subprocesses, a
        # SIGKILL mid-traffic, and zero lost or wrong verdicts.  The
        # verifiers inherit HOME, and must write nothing under it.
        monkeypatch.setenv("HOME", str(tmp_path))
        cluster = LocalCluster(verifiers=2, config=ClusterConfig(
            service=ServiceConfig(),
        ))
        with cluster:
            spawned = list(cluster.verifiers)

            async def run():
                client = await connect(cluster.address)
                try:
                    first = await asyncio.gather(*(
                        client.verify("host-001", message, signature)
                        for message, signature in _signed(20, prefix=b"s1")
                    ))
                    assert all(r["verdict"] is True for r in first)
                    victim = cluster.kill_verifier(0)
                    second = await asyncio.gather(*(
                        client.verify("host-001", message, signature)
                        for message, signature in _signed(20, prefix=b"s2")
                    ))
                    assert all(r["verdict"] is True for r in second)
                    assert {r["backend"] for r in second} == {
                        cluster.verifiers[1].name
                    }
                    assert victim.name not in {
                        r["backend"] for r in second
                    }
                finally:
                    await client.close()

            asyncio.run(run())
        assert list(tmp_path.iterdir()) == []
        # stop() closed each verifier's announcement pipe, the killed
        # one's included, instead of leaving it to the GC.
        assert [v.alive() for v in spawned] == [False, False]
        assert [v.process.stdout.closed for v in spawned] == [True, True]
