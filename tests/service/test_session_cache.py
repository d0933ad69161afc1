"""Cached session verdicts: a verdict is never served for a different request.

The verifier remembers each ``check-session`` verdict under the hash of
its two exact span bytes and both host names.  These tests state the
invariant and walk every path that could launder around it:

* a replay that differs in any one key part — one byte of either span,
  ``checked_host`` or ``checking_host`` — is answered exactly as a
  fresh re-execution answers it;
* a span that does not decode is answered ``malformed-frame`` on every
  replay and never enters the cache;
* a verify key never meets a session key;
* a restarted verifier starts with an empty cache;
* ``cache_entries=0`` caches nothing, and an oversize verdict is never
  kept, so the cache's verdict bytes stay under their stated bound.

Requests are answered in process through the verifier's dispatcher,
shaped exactly as a wire frame decodes them; re-executions are counted
by wrapping :func:`check_session_payload`, never timed.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.service.server as server_module
from repro.agents.state import AgentState
from repro.crypto.canonical import (
    CanonicalSpan,
    canonical_decode,
    canonical_encode,
)
from repro.crypto.keys import Identity
from repro.exceptions import SerializationError
from repro.service.cache import VerdictCache
from repro.service.server import (
    MAX_CACHED_VERDICT_BYTES,
    SPAN_FIELDS,
    ServiceConfig,
    VerificationService,
)
from repro.service.wire import decode_body
from repro.sim import FleetConfig, journey_request_stream

_FLEET = FleetConfig(num_agents=6, num_hosts=4, seed=5)
_CAPTURED = journey_request_stream(_FLEET).session_requests
_SESSIONS = [request.payload for request in _CAPTURED]
#: Each captured check's in-process verdict, as canonical bytes.
_VERDICTS = [canonical_encode(request.expected) for request in _CAPTURED]
_HOSTS = ["home", "host-001", "host-002", "host-003", "host-004"]


def _service(**overrides):
    return VerificationService(ServiceConfig(
        fleet_hosts=_FLEET.num_hosts, **overrides
    ))


def _frame(payload, request_id=1):
    """``payload`` as the verifier's dispatcher sees it off the wire."""
    body = canonical_encode(dict(payload, id=request_id, op="check-session"))
    return decode_body(body, SPAN_FIELDS)


def _spliced(prev_session, observed_state, checked_host, checking_host):
    """A decoded check-session frame carrying raw span bytes."""
    return {"id": 1, "op": "check-session",
            "prev_session": CanonicalSpan(prev_session),
            "observed_state": CanonicalSpan(observed_state),
            "checked_host": checked_host, "checking_host": checking_host}


def _answer(service, request):
    """The response bytes, ``id`` aside, as the wire would carry them."""
    response = dict(asyncio.run(service._respond(request)))
    response.pop("id")
    return canonical_encode(response)


@pytest.fixture
def executions(monkeypatch):
    """Counts the verifier's session re-executions."""
    calls = []
    original = server_module.check_session_payload

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(server_module, "check_session_payload", counting)
    return calls


def _parts(payload):
    return [canonical_encode(payload["prev_session"]),
            canonical_encode(payload["observed_state"]),
            payload["checked_host"], payload["checking_host"]]


class TestReplays:
    def test_a_replay_is_answered_from_the_cache(self, executions):
        service = _service()
        for index, payload in enumerate(_SESSIONS):
            first = _answer(service, _frame(payload, index))
            second = _answer(service, _frame(payload, index + 1000))
            assert first == second
        # One re-execution per distinct check, none for the replays.
        assert len(executions) == len(_SESSIONS)
        assert service.counters.cache_hits == len(_SESSIONS)

    def test_a_cached_verdict_is_the_fresh_in_process_verdict(self):
        service = _service()
        for payload, verdict in zip(_SESSIONS, _VERDICTS):
            for _ in range(2):
                response = asyncio.run(service._respond(_frame(payload)))
                assert response["status"] == "ok"
                assert response["verdict"].data == verdict

    def test_verdict_counters_count_a_hit_like_a_fresh_answer(self):
        fresh, cached = _service(cache_entries=0), _service()
        for service in (fresh, cached):
            for payload in _SESSIONS * 2:
                _answer(service, _frame(payload))
        for name in ("verdicts_true", "verdicts_false", "session_requests"):
            assert getattr(cached.counters, name) == getattr(
                fresh.counters, name
            )

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
    @settings(max_examples=150, deadline=None)
    def test_changing_one_key_part_never_serves_the_cached_verdict(
            self, index, part, position, byte, host):
        prev, observed, checked, checking = _parts(_SESSIONS[index])
        if part in ("prev_session", "observed_state"):
            span = bytearray(prev if part == "prev_session" else observed)
            position %= len(span)
            if span[position] == byte:
                byte ^= 1
            span[position] = byte
            if part == "prev_session":
                prev = bytes(span)
            else:
                observed = bytes(span)
        elif part == "checked_host":
            checked = host if host != checked else "host-0010"
        else:
            checking = host if host != checking else "host-0010"

        service, fresh = _service(), _service(cache_entries=0)
        original = _spliced(*_parts(_SESSIONS[index]))
        changed = _spliced(prev, observed, checked, checking)
        _answer(service, original)
        assert _answer(service, changed) == _answer(fresh, changed)
        # The changed request took its own answer, and the original
        # still gets its own back.
        assert _answer(service, original) == _answer(fresh, original)

    @given(index=st.integers(0, len(_SESSIONS) - 1),
           position=st.integers(0, 1 << 16),
           byte=st.sampled_from(b"0123456789abcdefxyz"))
    @settings(max_examples=60, deadline=None)
    def test_a_decodable_change_gets_the_fresh_check_session_payload(
            self, index, position, byte):
        # Only byte changes that keep the span a canonical mapping
        # (most land in a string or a number): the answer then equals
        # the in-process re-execution of the changed payload, byte for
        # byte.
        prev, observed, checked, checking = _parts(_SESSIONS[index])
        span = bytearray(prev)
        position %= len(span)
        span[position] = byte if span[position] != byte else byte ^ 1
        try:
            payload = canonical_decode(bytes(span))
        except SerializationError:
            payload = None
        assume(isinstance(payload, dict))
        service = _service()
        _answer(service, _spliced(prev, observed, checked, checking))
        response = asyncio.run(service._respond(
            _spliced(bytes(span), observed, checked, checking)
        ))
        assert response["status"] == "ok"
        verdict = server_module.check_session_payload(
            payload,
            AgentState.from_canonical(canonical_decode(observed)),
            checked,
            checking_host=checking,
            keystore=service.keystore,
        )
        assert response["verdict"].data == canonical_encode(
            verdict.to_canonical()
        )


class TestNeverCached:
    @pytest.mark.parametrize("span", [
        b"d16:s1:bi1:1s1:ai1:2",  # unsorted keys
        b"d9:s1:as5:ab",           # an inner length that lies
    ], ids=("unsorted", "short"))
    def test_a_malformed_span_is_refused_on_every_replay(self, span,
                                                         executions):
        service = _service()
        prev, observed, checked, checking = _parts(_SESSIONS[0])
        for field in ("prev_session", "observed_state"):
            request = _spliced(
                span if field == "prev_session" else prev,
                span if field == "observed_state" else observed,
                checked, checking,
            )
            for _ in range(3):
                response = asyncio.run(service._respond(request))
                assert response["status"] == "error"
                assert response["error"] == "malformed-frame"
        assert len(service.cache) == 0
        assert executions == []
        assert service.counters.frames_rejected_malformed == 6

    def test_a_malformed_request_is_never_cached(self, executions):
        service = _service()
        payload = dict(_SESSIONS[0], observed_state={"data": 1})
        for _ in range(2):
            response = asyncio.run(service._respond(_frame(payload)))
            assert response["error"] == "malformed-request"
        assert len(service.cache) == 0 and executions == []

    def test_a_failed_re_execution_is_never_cached(self, monkeypatch):
        service = _service()

        def broken(*args, **kwargs):
            raise RuntimeError("re-execution broke")

        monkeypatch.setattr(server_module, "check_session_payload", broken)
        for _ in range(2):
            response = asyncio.run(service._respond(_frame(_SESSIONS[0])))
            assert response["error"] == "internal-error"
        assert len(service.cache) == 0

    def test_a_restarted_verifier_starts_empty(self, executions):
        first = _service()
        _answer(first, _frame(_SESSIONS[0]))
        assert len(first.cache) == 1
        restarted = _service()
        assert len(restarted.cache) == 0
        assert _answer(restarted, _frame(_SESSIONS[0])) == _answer(
            first, _frame(_SESSIONS[0])
        )
        assert len(executions) == 2

    def test_cache_entries_zero_caches_nothing(self, executions):
        service = _service(cache_entries=0)
        assert service.cache is None
        message = b"uncached"
        signature = Identity.generate("host-001").private_key \
            .sign_recoverable(message)
        for _ in range(2):
            _answer(service, _frame(_SESSIONS[0]))
            response = asyncio.run(service._respond({
                "id": 1, "op": "verify", "signer": "host-001",
                "message": message, "signature": signature.to_canonical(),
            }))
            assert response["cache_hit"] is False
        assert len(executions) == 2
        assert service.stats()["batching"]["items"] == 2

    def test_a_verify_never_meets_a_session_entry(self):
        service = _service()
        _answer(service, _frame(_SESSIONS[0]))
        (session_key,) = list(service.cache._entries)
        message = canonical_encode(_SESSIONS[0]["prev_session"])
        signature = Identity.generate("check-session").private_key \
            .sign_recoverable(message)
        verify_key = VerdictCache.key("check-session", message, signature)
        assert verify_key != session_key and len(verify_key) != len(
            session_key)
        response = asyncio.run(service._respond({
            "id": 2, "op": "verify", "signer": "check-session",
            "message": message, "signature": signature.to_canonical(),
        }))
        assert response["cache_hit"] is False
        assert response["reason"] == "unknown-signer"


class TestMemoryBound:
    @staticmethod
    def _verdict_bytes(service):
        """Bytes of the session verdicts the cache holds."""
        return sum(len(value[0].data)
                   for value, _tag in service.cache._entries.values()
                   if isinstance(value, tuple))

    def test_the_default_cap_keeps_every_captured_verdict(self):
        service = _service()
        for payload in _SESSIONS:
            _answer(service, _frame(payload))
        assert len(service.cache) == len(_SESSIONS)
        assert self._verdict_bytes(service) <= (
            len(_SESSIONS) * MAX_CACHED_VERDICT_BYTES
        )

    def test_oversize_verdicts_are_never_kept(self, monkeypatch,
                                              executions):
        monkeypatch.setattr(server_module, "MAX_CACHED_VERDICT_BYTES",
                            min(map(len, _VERDICTS)) - 1)
        service = _service(cache_entries=4)
        for payload in _SESSIONS * 2:
            response = asyncio.run(service._respond(_frame(payload)))
            assert response["status"] == "ok"
        assert len(service.cache) == 0
        assert self._verdict_bytes(service) == 0
        assert len(executions) == 2 * len(_SESSIONS)

    def test_the_verdict_bytes_stay_under_entries_times_the_cap(
            self, monkeypatch):
        cap = sorted(map(len, _VERDICTS))[len(_VERDICTS) // 2]
        monkeypatch.setattr(server_module, "MAX_CACHED_VERDICT_BYTES", cap)
        entries = 3
        service = _service(cache_entries=entries)
        for payload in _SESSIONS:
            _answer(service, _frame(payload))
            assert self._verdict_bytes(service) <= entries * cap
        assert 0 < len(service.cache) <= entries
