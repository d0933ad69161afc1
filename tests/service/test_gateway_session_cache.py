"""The gateway's session-verdict tier: a verdict is never served for a
different request, and a restarted backend's verdicts are never served.

The gateway keeps ``ok`` session verdicts in its own
:class:`~repro.service.cache.VerdictCache`, under the verifier's session
key, tagged with the backend that produced them.  These tests mirror
``test_session_cache.py`` one tier up:

* a replay is answered by the gateway alone, with the keys and bytes of
  the relayed answer;
* a request that differs in one span byte or either host name is
  answered exactly as a cache-less verifier answers it;
* error answers and verdicts over the size cap are never kept, nor is
  anything when ``checking_host`` is no string or ``cache_entries=0``;
* a backend whose ``instance`` changes loses its session verdicts and
  its verify verdicts alike.

Each check runs a real verifier behind a real gateway on one event
loop; requests are answered through the gateway's dispatcher, shaped
exactly as a wire frame decodes them.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.service.cluster as cluster_module
from repro.crypto.canonical import CanonicalSpan, canonical_encode
from repro.crypto.keys import Identity
from repro.exceptions import MalformedFrame
from repro.service.cluster import ClusterConfig, ClusterGateway
from repro.service.server import (
    SPAN_FIELDS,
    ServiceConfig,
    VerificationService,
)
from repro.service.wire import decode_body
from repro.sim import FleetConfig, journey_request_stream

_FLEET = FleetConfig(num_agents=6, num_hosts=4, seed=5)
_CAPTURED = journey_request_stream(_FLEET).session_requests
_SESSIONS = [request.payload for request in _CAPTURED]
_VERDICTS = [canonical_encode(request.expected) for request in _CAPTURED]
_HOSTS = ["home", "host-001", "host-002", "host-003", "host-004"]
#: A verifier with no cache: the fresh answer to any request.
_FRESH = VerificationService(ServiceConfig(
    fleet_hosts=_FLEET.num_hosts, cache_entries=0,
))


def _frame(payload, request_id=1):
    """``payload`` as a dispatcher sees it off the wire."""
    body = canonical_encode(dict(payload, id=request_id, op="check-session"))
    return decode_body(body, SPAN_FIELDS)


def _spliced(prev_session, observed_state, checked_host, checking_host):
    """The decoded check-session frame carrying raw span bytes, or
    ``None`` when the frame is refused before any op sees it (a span
    whose own header lies about its length)."""
    try:
        return decode_body(canonical_encode({
            "id": 1, "op": "check-session",
            "prev_session": CanonicalSpan(prev_session),
            "observed_state": CanonicalSpan(observed_state),
            "checked_host": checked_host, "checking_host": checking_host,
        }), SPAN_FIELDS)
    except MalformedFrame:
        return None


def _parts(payload):
    return [canonical_encode(payload["prev_session"]),
            canonical_encode(payload["observed_state"]),
            payload["checked_host"], payload["checking_host"]]


def _bytes(response):
    """The answer, ``id`` and ``backend`` aside, as the wire carries it."""
    response = dict(response)
    response.pop("id")
    response.pop("backend", None)
    return canonical_encode(response)


def _fresh(request):
    return _bytes(asyncio.run(_FRESH._respond(request)))


def _run(scenario, **gateway_settings):
    """Run ``scenario(gateway, verifier)`` against a fresh cluster."""
    async def run():
        verifier = VerificationService(ServiceConfig(
            fleet_hosts=_FLEET.num_hosts,
        ))
        settings_ = {"health_interval": 30.0}
        settings_.update(gateway_settings)
        gateway = ClusterGateway(ClusterConfig(
            backends=(await verifier.start(),), **settings_,
        ))
        await gateway.start()
        try:
            return await scenario(gateway, verifier)
        finally:
            await gateway.stop()
            await verifier.stop()

    return asyncio.run(run())


def _session_entries(gateway):
    return [value for value, _tag in gateway.cache._entries.values()
            if isinstance(value, tuple)]


class TestReplays:
    def test_a_replay_never_reaches_the_backend(self):
        async def scenario(gateway, verifier):
            for index, payload in enumerate(_SESSIONS):
                relayed = await gateway._respond(_frame(payload, index))
                hit = await gateway._respond(_frame(payload, index + 1000))
                assert hit["id"] == index + 1000
                assert hit.keys() == relayed.keys()
                assert hit["backend"] == relayed["backend"]
                assert _bytes(hit) == _bytes(relayed)
                assert hit["verdict"].data == _VERDICTS[index]
            assert verifier.counters.session_requests == len(_SESSIONS)
            assert verifier.counters.cache_hits == 0
            assert gateway.counters.cache_hits == len(_SESSIONS)
            assert gateway.counters.session_requests == 2 * len(_SESSIONS)

        _run(scenario)

    @given(
        index=st.integers(0, len(_SESSIONS) - 1),
        part=st.sampled_from(["prev_session", "observed_state",
                              "checked_host", "checking_host"]),
        position=st.integers(0, 1 << 16),
        byte=st.integers(0, 255),
        host=st.sampled_from(_HOSTS + [None, "", "host-0010"]),
    )
    @example(index=0, part="checked_host", position=0, byte=0, host=None)
    @example(index=0, part="checking_host", position=0, byte=0,
             host="host-001")
    @settings(max_examples=100, deadline=None)
    def test_changing_one_key_part_never_serves_the_cached_verdict(
            self, index, part, position, byte, host):
        prev, observed, checked, checking = _parts(_SESSIONS[index])
        if part in ("prev_session", "observed_state"):
            span = bytearray(prev if part == "prev_session" else observed)
            position %= len(span)
            span[position] = byte if span[position] != byte else byte ^ 1
            if part == "prev_session":
                prev = bytes(span)
            else:
                observed = bytes(span)
        elif part == "checked_host":
            checked = host if host != checked else "host-0010"
        else:
            checking = host if host != checking else "host-0010"
        original = _spliced(*_parts(_SESSIONS[index]))
        changed = _spliced(prev, observed, checked, checking)
        assume(changed is not None)

        async def scenario(gateway, verifier):
            await gateway._respond(original)
            assert gateway.counters.cache_hits == 0
            answer = _bytes(await gateway._respond(changed))
            # The changed request went to the backend...
            assert gateway.counters.cache_hits == 0
            assert verifier.counters.session_requests == 2
            # ... and the original still gets its own verdict back.
            again = _bytes(await gateway._respond(original))
            assert gateway.counters.cache_hits == 1
            return answer, again

        answer, again = _run(scenario)
        assert answer == _fresh(changed)
        assert again == _fresh(original)


class TestNeverKept:
    @pytest.mark.parametrize("span", [
        b"d16:s1:bi1:1s1:ai1:2",  # unsorted keys
        b"d9:s1:as5:ab",           # an inner length that lies
    ], ids=("unsorted", "short"))
    def test_an_error_answer_is_relayed_on_every_replay(self, span):
        prev, observed, checked, checking = _parts(_SESSIONS[0])

        async def scenario(gateway, verifier):
            for request in (_spliced(span, observed, checked, checking),
                            _spliced(prev, span, checked, checking)):
                for _ in range(3):
                    response = await gateway._respond(request)
                    assert response["status"] == "error"
                    assert response["error"] == "malformed-frame"
            assert len(gateway.cache) == 0
            assert gateway.counters.cache_hits == 0
            assert verifier.counters.frames_rejected_malformed == 6

        _run(scenario)

    def test_a_malformed_request_is_never_kept(self):
        payload = dict(_SESSIONS[0], observed_state={"data": 1})

        async def scenario(gateway, verifier):
            for _ in range(2):
                response = await gateway._respond(_frame(payload))
                assert response["error"] == "malformed-request"
            assert len(gateway.cache) == 0
            assert verifier.counters.session_requests == 2

        _run(scenario)

    @pytest.mark.parametrize("checking_host", [None, 7, ["home"]])
    def test_nothing_is_kept_without_a_string_checking_host(
            self, checking_host):
        payload = dict(_SESSIONS[0], checking_host=checking_host)

        async def scenario(gateway, verifier):
            answers = [_bytes(await gateway._respond(_frame(payload)))
                       for _ in range(2)]
            assert len(gateway.cache) == 0
            assert verifier.counters.session_requests == 2
            return answers

        answers = _run(scenario)
        assert answers == [_fresh(_frame(payload))] * 2

    def test_oversize_verdicts_are_never_kept(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_CACHED_VERDICT_BYTES",
                            min(map(len, _VERDICTS)) - 1)

        async def scenario(gateway, verifier):
            for index, payload in enumerate(_SESSIONS * 2):
                response = await gateway._respond(_frame(payload))
                assert response["status"] == "ok"
                assert response["verdict"].data == _VERDICTS[
                    index % len(_SESSIONS)]
            assert _session_entries(gateway) == []
            assert gateway.counters.cache_hits == 0
            assert verifier.counters.session_requests == 2 * len(_SESSIONS)

        _run(scenario)

    def test_kept_verdicts_stay_under_the_cap(self, monkeypatch):
        cap = sorted(map(len, _VERDICTS))[len(_VERDICTS) // 2]
        monkeypatch.setattr(cluster_module, "MAX_CACHED_VERDICT_BYTES", cap)

        async def scenario(gateway, verifier):
            for payload in _SESSIONS:
                await gateway._respond(_frame(payload))
            kept = _session_entries(gateway)
            assert 0 < len(kept) < len(_SESSIONS)
            assert all(len(verdict.data) <= cap for verdict, _ in kept)

        _run(scenario)

    def test_cache_entries_zero_keeps_nothing(self):
        async def scenario(gateway, verifier):
            assert gateway.cache is None
            for payload in _SESSIONS * 2:
                response = await gateway._respond(_frame(payload))
                assert response["status"] == "ok"
            assert gateway.counters.cache_hits == 0
            assert verifier.counters.session_requests == 2 * len(_SESSIONS)

        _run(scenario, cache_entries=0)


class TestRestart:
    def test_a_restarted_backend_loses_both_kinds_of_verdict(self):
        identity = Identity.generate("host-001")
        message = b"restart"
        signature = identity.private_key.sign_recoverable(message)
        verify = {"id": 2, "op": "verify", "signer": "host-001",
                  "message": message, "signature": signature.to_canonical()}

        async def scenario(gateway, verifier):
            await gateway._respond(_frame(_SESSIONS[0]))
            assert (await gateway._respond(verify))["verdict"] is True
            assert len(gateway.cache) == 2
            (name,) = gateway.ring.nodes
            gateway.monitor.record_success(name, {"instance": "a-new-one"})
            assert len(gateway.cache) == 0
            assert gateway.counters.restarts_detected == 1
            assert gateway.counters.invalidated_verdicts == 2
            # Both are asked of the backend again.
            session = await gateway._respond(_frame(_SESSIONS[0]))
            assert session["verdict"].data == _VERDICTS[0]
            assert (await gateway._respond(verify)).get("tier") != (
                "gateway-cache")
            assert gateway.counters.cache_hits == 0
            assert verifier.counters.session_requests == 2
            assert verifier.counters.verify_requests == 2

        _run(scenario)


def test_a_stopped_gateway_drops_its_verdicts():
    async def scenario(gateway, verifier):
        await gateway._respond(_frame(_SESSIONS[0]))
        assert len(gateway.cache) == 1
        return gateway

    gateway = _run(scenario)
    assert len(gateway.cache) == 0
    assert gateway.cache.stats()["misses"] == 1
