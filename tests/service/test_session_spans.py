"""Session checks travel as canonical spans: forwarded as-is, decoded once.

Every endpoint decodes a request frame's top level only and keeps a
check-session's ``prev_session`` and ``observed_state`` as the client's
own canonical bytes.  The gateway forwards those bytes untouched; the
verifier decodes each span strictly, once, keeping the parts the check
hashes or verifies as the bytes that arrived, and answers a span that
does not decode with a typed error carrying the request id.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.service.server as server_module
from repro.agents.state import AgentState
from repro.crypto.canonical import (
    CanonicalDecoder,
    CanonicalEncoder,
    CanonicalSpan,
    canonical_decode,
    canonical_encode,
)
from repro.exceptions import AgentStateError, SerializationError
from repro.service.cluster import ClusterConfig, ClusterGateway
from repro.service.server import (
    SPAN_FIELDS,
    ServiceConfig,
    VerificationService,
)
from repro.service.wire import (
    WIRE_VERSION,
    decode_body,
    encode_frame,
    read_frame,
)
from repro.sim import FleetConfig, journey_request_stream


def _nested_lists(levels: int) -> bytes:
    data = b"N0:"
    for _ in range(levels):
        data = b"l%d:%s" % (len(data), data)
    return data


#: Non-canonical ``prev_session`` bodies whose own header is intact, so
#: the frame's top level decodes and only the strict span decode fails.
MALFORMED_SPANS = {
    "unsorted-inner-keys": b"d16:s1:bi1:1s1:ai1:2",
    "inner-length-lies": b"d9:s1:as5:ab",
    # Decodes on its own, but one level into a frame it is too deep.
    "nested-past-the-bound": _nested_lists(CanonicalEncoder.max_depth),
}


def _session(request_id, prev_session, observed_state=None):
    return {
        "id": request_id,
        "op": "check-session",
        "prev_session": prev_session,
        "observed_state": {} if observed_state is None else observed_state,
        "checked_host": "host-001",
        "checking_host": "home",
    }


@asynccontextmanager
async def _verifier():
    verifier = VerificationService(ServiceConfig(fleet_hosts=4))
    await verifier.start()
    try:
        yield verifier, verifier
    finally:
        await verifier.stop()


@asynccontextmanager
async def _gateway():
    verifier = VerificationService(ServiceConfig(fleet_hosts=4))
    gateway = ClusterGateway(ClusterConfig(
        backends=(await verifier.start(),), health_interval=30.0,
    ))
    await gateway.start()
    try:
        yield gateway, verifier
    finally:
        await gateway.stop()
        await verifier.stop()


ENDPOINTS = {"verifier": _verifier, "gateway": _gateway}


async def _exchange(reader, writer, request):
    writer.write(encode_frame(request))
    await writer.drain()
    return decode_body(await asyncio.wait_for(read_frame(reader), 10.0))


class TestMalformedSpans:
    @pytest.mark.parametrize("name", sorted(MALFORMED_SPANS))
    def test_the_frame_is_not_canonical_but_its_top_level_is(self, name):
        body = canonical_encode(_session(3, CanonicalSpan(MALFORMED_SPANS[name])))
        with pytest.raises(SerializationError):
            canonical_decode(body)
        shallow = canonical_decode(body, spans=SPAN_FIELDS)
        assert shallow["prev_session"].data == MALFORMED_SPANS[name]

    @pytest.mark.parametrize("role", sorted(ENDPOINTS))
    @pytest.mark.parametrize("name", sorted(MALFORMED_SPANS))
    def test_typed_error_carries_the_id_and_the_stream_survives(
            self, role, name):
        async def run():
            async with ENDPOINTS[role]() as (endpoint, verifier):
                reader, writer = await asyncio.open_connection(
                    *endpoint.address
                )
                response = await _exchange(reader, writer, _session(
                    41, CanonicalSpan(MALFORMED_SPANS[name])
                ))
                assert response["status"] == "error"
                assert response["error"] == "malformed-frame"
                assert response["id"] == 41
                assert verifier.counters.frames_rejected_malformed == 1
                # The connection keeps serving.
                pong = await _exchange(reader, writer, {"id": 42, "op": "ping"})
                assert pong["id"] == 42 and pong["status"] == "ok"
                if endpoint is not verifier:
                    # One answer from the backend: no failover, no
                    # re-issue, and nothing rejected at the gateway.
                    assert endpoint.counters.failovers == 0
                    assert endpoint.counters.reissues == 0
                    assert endpoint.counters.frames_rejected_malformed == 0
                writer.close()

        asyncio.run(run())

    @pytest.mark.parametrize("role", sorted(ENDPOINTS))
    def test_a_span_that_is_not_a_dict_is_a_malformed_request(self, role):
        async def run():
            async with ENDPOINTS[role]() as (endpoint, verifier):
                reader, writer = await asyncio.open_connection(
                    *endpoint.address
                )
                response = await _exchange(reader, writer,
                                           _session(9, [1, "two"]))
                assert response["status"] == "error"
                assert response["error"] == "malformed-request"
                assert response["id"] == 9
                assert verifier.counters.frames_rejected_malformed == 0
                writer.close()

        asyncio.run(run())


@asynccontextmanager
async def _recording_backend(frames):
    """A stand-in verifier that records every check-session body.

    It answers pings with a wire/2 hello and everything else with an
    ``ok`` verdict, so the gateway's only work is to forward.
    """
    async def serve(reader, writer):
        while True:
            body = await read_frame(reader)
            if body is None:
                break
            request = decode_body(body, SPAN_FIELDS)
            if request["op"] == "ping":
                response = {"id": request["id"], "status": "ok",
                            "wire": WIRE_VERSION, "instance": "stand-in",
                            "role": "verifier"}
            else:
                frames.append(body)
                response = {"id": request["id"], "status": "ok",
                            "verdict": {"status": "ok"}}
            writer.write(encode_frame(response))
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[:2]
    finally:
        server.close()
        await server.wait_closed()


class TestForwardedBytes:
    def test_gateway_forwards_what_a_full_decode_would_reencode(self):
        stream = journey_request_stream(
            FleetConfig(num_agents=6, num_hosts=4, seed=5)
        )
        sessions = [request.payload for request in stream.session_requests]
        assert sessions

        async def run():
            frames = []
            async with _recording_backend(frames) as address:
                gateway = ClusterGateway(ClusterConfig(
                    backends=(address,), health_interval=30.0,
                ))
                await gateway.start()
                try:
                    reader, writer = await asyncio.open_connection(
                        *gateway.address
                    )
                    for index, payload in enumerate(sessions):
                        response = await _exchange(
                            reader, writer, dict(payload, id=index)
                        )
                        assert response["id"] == index
                    writer.close()
                finally:
                    await gateway.stop()
            return frames

        frames = asyncio.run(run())
        assert len(frames) == len(sessions)
        for payload, frame in zip(sessions, frames):
            # What the client sent, decoded in full, with the id the
            # gateway's backend connection assigned.
            sent = canonical_decode(canonical_encode(payload))
            sent["id"] = decode_body(frame, SPAN_FIELDS)["id"]
            assert frame == canonical_encode(sent)


class TestMalformedStatements:
    """A session whose statements have the wrong type gets a verdict.

    The payload decodes, so it is the checked host's evidence that is
    bad, not the request: the verifier answers with an attack verdict
    blaming the checked host, not with an error.
    """

    @pytest.mark.parametrize("role", sorted(ENDPOINTS))
    @pytest.mark.parametrize("field", ["manifest", "initial_state"])
    def test_is_an_attack_verdict(self, role, field):
        stream = journey_request_stream(
            FleetConfig(num_agents=4, num_hosts=4, seed=5)
        )
        payload = stream.session_requests[0].payload
        request = dict(payload, id=7, prev_session=dict(
            payload["prev_session"], **{field: "x"}
        ))

        async def run():
            async with ENDPOINTS[role]() as (endpoint, verifier):
                reader, writer = await asyncio.open_connection(
                    *endpoint.address
                )
                response = await _exchange(reader, writer, request)
                writer.close()
                return response

        response = asyncio.run(run())
        assert response["status"] == "ok" and response["id"] == 7
        assert response["verdict"]["status"] == "attack-detected"
        assert response["verdict"]["checked_host"] == payload["checked_host"]

    def test_an_observed_state_that_is_not_a_state_is_a_malformed_request(
            self):
        async def run():
            async with _verifier() as (endpoint, verifier):
                reader, writer = await asyncio.open_connection(
                    *endpoint.address
                )
                response = await _exchange(
                    reader, writer, _session(8, {}, {"data": 1})
                )
                writer.close()
                return response

        response = asyncio.run(run())
        assert response["status"] == "error" and response["id"] == 8
        assert response["error"] == "malformed-request"


_FLEET = FleetConfig(num_agents=6, num_hosts=4, seed=5)
_CAPTURED = journey_request_stream(_FLEET).session_requests
#: Strict decoding of a span allows one level less than a frame.
_SPAN_DEPTH = CanonicalDecoder.max_depth - 1


def _spliced(payload, request_id=1, **spans):
    """``payload`` as the verifier's dispatcher sees it off the wire,
    with any span replaced by the raw bytes given for it."""
    request = decode_body(
        canonical_encode(dict(payload, id=request_id, op="check-session")),
        SPAN_FIELDS,
    )
    for name, data in spans.items():
        request[name] = CanonicalSpan(data)
    return request


class TestDecodeOnce:
    """The verifier decodes each span once and re-encodes nothing that
    arrived: counted, never timed."""

    @pytest.mark.parametrize("index", range(len(_CAPTURED)))
    def test_a_check_decodes_each_span_once_and_reencodes_no_part(
            self, index, monkeypatch):
        captured = _CAPTURED[index]
        prev = captured.payload["prev_session"]
        received = {
            "manifest payload": canonical_encode(prev["manifest"]["payload"]),
            "initial state": canonical_encode(prev["initial_state"]),
            "input": canonical_encode(prev["input"]),
        }
        if prev["sender_manifest"] is not None:
            received["sender manifest payload"] = canonical_encode(
                prev["sender_manifest"]["payload"]
            )
        observed = canonical_encode(captured.payload["observed_state"])
        service = VerificationService(ServiceConfig(
            fleet_hosts=_FLEET.num_hosts, cache_entries=0,
        ))
        request = _spliced(captured.payload)

        encoded, decoded = [], []
        encode, decode = CanonicalEncoder.encode, CanonicalDecoder.decode

        def counting_encode(self, value):
            encoded.append(encode(self, value))
            return encoded[-1]

        def counting_decode(self, data, **kwargs):
            decoded.append(bytes(data))
            return decode(self, data, **kwargs)

        monkeypatch.setattr(CanonicalEncoder, "encode", counting_encode)
        monkeypatch.setattr(CanonicalDecoder, "decode", counting_decode)
        response = asyncio.run(service._handle_session(1, request))
        monkeypatch.undo()

        assert response["verdict"].data == canonical_encode(captured.expected)
        assert decoded == [request["prev_session"].data,
                           request["observed_state"].data]
        for name, data in received.items():
            assert data not in encoded, "the %s was re-encoded" % name
        # The re-executed reference state is a new value: on an honest
        # session its encoding equals the observed state's bytes.  Any
        # second encode of those bytes would be the arrived state's.
        assert encoded.count(observed) <= 1


def _mutated(data, kind, position, byte):
    """``data`` with one byte replaced, inserted or deleted."""
    edited = bytearray(data)
    if kind == "delete":
        del edited[position % len(edited)]
    elif kind == "insert":
        edited.insert(position % (len(edited) + 1), byte)
    else:
        position %= len(edited)
        edited[position] = byte if edited[position] != byte else byte ^ 1
    return bytes(edited)


def _todays_answer(service, request):
    """The answer of a plain strict decode of both spans, then
    :func:`check_session_payload` on the decoded values."""
    try:
        prev_session = canonical_decode(request["prev_session"].data,
                                        max_depth=_SPAN_DEPTH)
        observed = canonical_decode(request["observed_state"].data,
                                    max_depth=_SPAN_DEPTH)
    except SerializationError:
        return "malformed-frame"
    if not isinstance(prev_session, dict) or not isinstance(observed, dict):
        return "malformed-request"
    try:
        observed = AgentState.from_canonical(observed)
    except AgentStateError:
        return "malformed-request"
    return canonical_encode(server_module.check_session_payload(
        prev_session, observed, request["checked_host"],
        checking_host=request["checking_host"], keystore=service.keystore,
    ).to_canonical())


class TestDecodeOnceParity:
    """Keeping parts as received changes no answer: a one-byte edit of
    either span gets today's answer, byte for byte."""

    _service = VerificationService(ServiceConfig(
        fleet_hosts=_FLEET.num_hosts, cache_entries=0,
    ))

    @given(
        index=st.integers(0, len(_CAPTURED) - 1),
        field=st.sampled_from(sorted(SPAN_FIELDS)),
        # Weighted towards edits that can leave the span canonical: a
        # hex digit or a digit replacing one inside a string or number.
        kind=st.sampled_from(["replace"] * 3 + ["insert", "delete"]),
        position=st.integers(0, 1 << 16),
        byte=st.one_of(st.sampled_from(b"0123456789abcdef"),
                       st.integers(0, 255)),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_one_byte_edit_gets_todays_answer(
            self, index, field, kind, position, byte):
        payload = _CAPTURED[index].payload
        span = _mutated(canonical_encode(payload[field]), kind, position, byte)
        request = _spliced(payload, 77, **{field: span})
        expected = _todays_answer(self._service, request)
        response = asyncio.run(self._service._respond(request))
        assert response["id"] == 77
        if expected in ("malformed-frame", "malformed-request"):
            assert response["status"] == "error"
            assert response["error"] == expected
        else:
            assert response["status"] == "ok"
            assert response["verdict"].data == expected
