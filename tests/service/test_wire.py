"""Framing: round trips, oversize-before-decode, truncation, malformed."""

from __future__ import annotations

import asyncio

import pytest

from repro.crypto.canonical import CanonicalEncoder
from repro.exceptions import FrameTooLarge, MalformedFrame, TruncatedFrame
from repro.service.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    decode_body,
    encode_frame,
    read_frame,
    split_frames,
)


def _read(data: bytes, max_frame: int = MAX_FRAME_BYTES):
    """Drive read_frame against an in-memory stream, return all bodies."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        bodies = []
        while True:
            body = await read_frame(reader, max_frame)
            if body is None:
                return bodies
            bodies.append(body)

    return asyncio.run(run())


class TestRoundTrip:
    def test_payload_round_trips(self):
        payload = {"op": "verify", "message": b"\x00\xffbytes", "n": 12}
        bodies = _read(encode_frame(payload))
        assert len(bodies) == 1
        assert decode_body(bodies[0]) == payload

    def test_multiple_frames_preserve_order(self):
        payloads = [{"id": index} for index in range(5)]
        data = b"".join(encode_frame(p) for p in payloads)
        assert [decode_body(b) for b in _read(data)] == payloads
        assert split_frames(data) == payloads

    def test_clean_eof_reads_as_end_of_stream(self):
        assert _read(b"") == []


class TestOversize:
    def test_sender_side_rejects_oversized_payloads(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": b"x" * 64}, max_frame=16)

    def test_oversized_frame_is_rejected_from_the_header_alone(self):
        # The declared length exceeds the limit; the body bytes are
        # deliberately NOT appended — if the reader tried to read or
        # decode the body it would hang or raise the wrong error.
        header_only = (1 << 19).to_bytes(4, "big")

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(header_only)
            with pytest.raises(FrameTooLarge):
                await read_frame(reader, max_frame=1024)

        asyncio.run(run())

    def test_split_frames_enforces_the_same_limit(self):
        frame = encode_frame({"blob": b"y" * 512})
        with pytest.raises(FrameTooLarge):
            split_frames(frame, max_frame=64)


class TestTruncation:
    def test_eof_inside_the_header_is_truncation(self):
        with pytest.raises(TruncatedFrame):
            _read(b"\x00\x00")

    def test_eof_inside_the_body_is_truncation(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(TruncatedFrame):
            _read(frame[:HEADER_BYTES + 3])

    def test_split_frames_rejects_truncated_tails(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(TruncatedFrame):
            split_frames(frame + frame[:2])


class TestMalformed:
    def test_zero_length_frame_is_malformed(self):
        with pytest.raises(MalformedFrame):
            _read(b"\x00\x00\x00\x00")

    def test_undecodable_body_is_malformed(self):
        with pytest.raises(MalformedFrame):
            decode_body(b"\x99this is not canonical")

    def test_malformed_body_does_not_break_the_stream_position(self):
        # Framing stays intact even when a body is garbage: the next
        # frame is still readable (the server answers with a typed
        # error and keeps serving).
        garbage = b"\x99garbage"
        data = (
            len(garbage).to_bytes(4, "big") + garbage
            + encode_frame({"op": "ping"})
        )
        bodies = _read(data)
        assert len(bodies) == 2
        with pytest.raises(MalformedFrame):
            decode_body(bodies[0])
        assert decode_body(bodies[1]) == {"op": "ping"}


def _nested_lists(levels: int) -> bytes:
    data = b"N0:"
    for _ in range(levels):
        data = b"l%d:%s" % (len(data), data)
    return data


def _dict_body(*items: bytes) -> bytes:
    payload = b"".join(items)
    return b"d%d:%s" % (len(payload), payload)


class TestHostileBodies:
    """Hostile bodies fail as ``MalformedFrame`` and nothing else."""

    @pytest.mark.parametrize("body", [
        _nested_lists(900),
        _nested_lists(CanonicalEncoder.max_depth + 1),
        _dict_body(b"s2:op", b"s10:ping"),
        b"i5000:" + b"1" * 5000,
        _dict_body(b"i1:1", b"s2:op"),
        _dict_body(b"s2:op", b"s4:ping", b"s2:id", b"i1:1"),
        _dict_body(b"s2:op", b"s4:ping", b"s2:op", b"s4:ping"),
        b"e8:i1:2i1:1",
        b"s2:\xff\xfe",
        b"f3:abc",
    ], ids=[
        "900-deep", "65-deep", "length-beyond-body", "5000-digit-int",
        "non-string-key", "unsorted-keys", "duplicate-keys",
        "unsorted-set", "invalid-utf8", "short-float",
    ])
    def test_hostile_body_is_malformed(self, body):
        with pytest.raises(MalformedFrame):
            decode_body(body)
