"""Length-prefixed canonical framing for the verification service.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of canonical encoding
(:func:`repro.crypto.canonical.canonical_encode`) of a single request
or response value.  Canonical encoding is already the library's signed
wire format, so the service introduces no second serializer: the bytes
a client frames for the service are the very bytes signatures are
computed over elsewhere in the system.

Safety properties the framing layer enforces (the server's edge-case
contract, exercised by ``tests/service/test_wire.py``):

* an **oversized** frame is rejected from its header alone —
  :class:`~repro.exceptions.FrameTooLarge` is raised before any body
  byte is read, and long before a decode is attempted;
* a **truncated** frame (peer gone mid-frame) raises
  :class:`~repro.exceptions.TruncatedFrame`, while a clean EOF between
  frames reads as end-of-stream (``None``);
* a **malformed** body (framing intact, payload undecodable) raises
  :class:`~repro.exceptions.MalformedFrame` — the connection stays
  usable, the server answers with a typed error response.

Servers decode a request's top level only: the bulky fields of a
session check stay canonical spans (``decode_body(body, spans)``), which
a gateway forwards as they came and a verifier decodes on its own.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Collection, Optional

from repro.crypto.canonical import canonical_decode, canonical_encode
from repro.exceptions import (
    FrameTooLarge,
    MalformedFrame,
    SerializationError,
    TruncatedFrame,
    WireVersionMismatch,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "WIRE_MAJOR",
    "encode_frame",
    "decode_body",
    "read_frame",
    "split_frames",
    "parse_wire_version",
    "check_wire_version",
]

#: Wire-protocol version servers advertise in every ``ping`` response.
#: The major number changes on incompatible request/response shapes;
#: ``wire/2`` is the first version that advertises itself (and the
#: first with the ``verify-batch`` inter-tier op), so a peer that
#: advertises nothing is a ``wire/1`` speaker by definition.
WIRE_VERSION = "wire/2"
WIRE_MAJOR = 2

#: Default upper bound on one frame's body.  Generous for session-check
#: payloads (full initial states travel once per check) yet small enough
#: that a corrupt or hostile length prefix cannot make the server buffer
#: gigabytes before noticing.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size


def encode_frame(payload: Any, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Frame ``payload`` (header + canonical body) for the wire.

    Raises
    ------
    FrameTooLarge
        If the encoded body exceeds ``max_frame`` — the sender-side
        twin of the receiver's pre-decode rejection, so an oversized
        request fails loudly at the client instead of silently killing
        its connection.
    """
    body = canonical_encode(payload)
    if len(body) > max_frame:
        raise FrameTooLarge(
            "frame body of %d bytes exceeds the %d-byte limit"
            % (len(body), max_frame)
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes,
                spans: Optional[Collection[str]] = None) -> Any:
    """Decode one frame body, mapping decode failures to a typed error.

    The values of the top-level keys named in ``spans`` stay undecoded
    :class:`~repro.crypto.canonical.CanonicalSpan` objects (see
    :func:`~repro.crypto.canonical.canonical_decode`).
    """
    try:
        return canonical_decode(body, spans=spans)
    except SerializationError as exc:
        raise MalformedFrame(
            "frame body is not a canonical value: %s" % exc
        ) from exc


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = MAX_FRAME_BYTES,
) -> Optional[bytes]:
    """Read one frame body from ``reader``.

    Returns the raw body bytes (decode is the caller's separate step,
    so oversize rejection demonstrably happens *before* decode), or
    ``None`` on a clean end-of-stream between frames.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrame(
            "connection closed inside a frame header "
            "(%d of %d bytes)" % (len(exc.partial), HEADER_BYTES)
        ) from exc
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise MalformedFrame("zero-length frame")
    if length > max_frame:
        # Rejected on the header alone: the body is never read, never
        # buffered, never decoded.
        raise FrameTooLarge(
            "declared frame length %d exceeds the %d-byte limit"
            % (length, max_frame)
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            "connection closed inside a %d-byte frame body "
            "(%d bytes received)" % (length, len(exc.partial))
        ) from exc


def parse_wire_version(advertised: Any) -> int:
    """Extract the major version from a ``wire/<major>`` advertisement.

    A missing advertisement (``None``) decodes as major ``1``: servers
    older than ``wire/2`` did not announce themselves, so absence *is*
    their version statement.  Anything else that does not look like
    ``wire/<int>`` raises :class:`~repro.exceptions.WireVersionMismatch`
    — an unintelligible advertisement is a mismatch, not a crash later.
    """
    if advertised is None:
        return 1
    if isinstance(advertised, str) and advertised.startswith("wire/"):
        suffix = advertised[len("wire/"):]
        if suffix.isdigit():
            return int(suffix)
    raise WireVersionMismatch(
        "unintelligible wire-version advertisement %r" % (advertised,)
    )


def check_wire_version(advertised: Any) -> int:
    """Refuse a peer whose advertised major differs from ours.

    Returns the peer's major on success; raises the typed
    :class:`~repro.exceptions.WireVersionMismatch` otherwise.  This is
    the client half of the hello exchange: gateway and verifier tiers
    can evolve independently because an incompatible pairing fails
    loudly at connect time.
    """
    major = parse_wire_version(advertised)
    if major != WIRE_MAJOR:
        raise WireVersionMismatch(
            "peer speaks wire/%d, this client speaks %s — refusing the "
            "connection" % (major, WIRE_VERSION)
        )
    return major


def split_frames(data: bytes, max_frame: int = MAX_FRAME_BYTES) -> list:
    """Split a byte string of concatenated frames into decoded payloads.

    Synchronous counterpart of :func:`read_frame` for tests and for
    tooling that captures whole conversations; enforces the same
    oversize / truncation / decode contract.
    """
    payloads = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < HEADER_BYTES:
            raise TruncatedFrame("trailing bytes shorter than a frame header")
        (length,) = _HEADER.unpack(data[offset:offset + HEADER_BYTES])
        if length == 0:
            raise MalformedFrame("zero-length frame")
        if length > max_frame:
            raise FrameTooLarge(
                "declared frame length %d exceeds the %d-byte limit"
                % (length, max_frame)
            )
        offset += HEADER_BYTES
        if total - offset < length:
            raise TruncatedFrame(
                "frame body of %d bytes truncated at %d"
                % (length, total - offset)
            )
        payloads.append(decode_body(data[offset:offset + length]))
        offset += length
    return payloads
