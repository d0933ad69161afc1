"""Deterministic canonical serialization.

Every protection mechanism in the paper ultimately compares, hashes, or
signs *agent states*.  For that to be meaningful the encoding of a state
must be deterministic: two structurally equal states must serialize to
the same byte string regardless of dictionary insertion order, process
hash randomization, or platform.

This module provides :func:`canonical_encode`, a small, explicit
serializer for the value universe the library uses for agent data
states, inputs, and execution logs:

* ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``
* ``list`` / ``tuple`` (encoded identically, as sequences)
* ``dict`` with string keys (encoded with keys sorted)
* ``set`` / ``frozenset`` of encodable values (encoded sorted by their
  canonical encoding)
* any object exposing ``to_canonical()`` returning an encodable value

The format is a length-prefixed tagged binary encoding, loosely
following the spirit of bencoding/ASN.1 DER: a one-byte tag, a decimal
ASCII length, ``:``, then the payload.  The encoder appends headers and
leaf payloads to one chunk list, filling in a container's header once
its children's sizes are known, and joins the list once.

Decoding is strict and walks one ``bytes`` object by offset.
:func:`canonical_decode` either raises
:class:`~repro.exceptions.SerializationError` or returns a value that
re-encodes to exactly its input (tuples come back as lists).  So
lengths and integers must be in shortest decimal form, ``N``/``T``/``F``
payloads empty, dict keys strings in strictly increasing order, set
members strictly increasing by encoding, floats neither NaN nor
``-0.0``, strings valid UTF-8, and nesting no deeper than
:attr:`CanonicalEncoder.max_depth`.

:func:`canonical_decode` can also keep parts of a value as the bytes
they arrived in, as :class:`CanonicalSpan` objects.  A flat ``spans``
collection cuts the named top-level dict values *shallowly*: only their
tag-and-length header is checked, so a relay can forward a value it
never decoded, and whoever reads it decodes ``span.data`` strictly.  A
nested ``spans`` dict descends into the values it names and *keeps*
the parts mapped to :data:`KEEP`: each is decoded strictly, in place,
and comes back as a span of its exact bytes carrying the decoded value,
so a reader can hash or verify those bytes without re-encoding them.
Encoding splices a span back unchanged either way.

:func:`canonical_copy` is the in-process shortcut for a round trip: it
builds the value the decoder would return without producing bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Any, Collection, List, Mapping, Optional, Union

from repro.exceptions import SerializationError

__all__ = [
    "canonical_encode",
    "canonical_decode",
    "canonical_copy",
    "canonical_equal",
    "CanonicalEncoder",
    "CanonicalDecoder",
    "CanonicalSpan",
    "KEEP",
]


_FLOAT = struct.Struct(">d")
#: Tag byte -> value of the payload-free tags ``N``, ``T`` and ``F``.
_CONSTANTS = {78: None, 84: True, 70: False}
#: The canonical decimal forms of 0..999: for most length prefixes and
#: many integers one lookup both validates and converts.
_SMALL = {b"%d" % n: n for n in range(1000)}
#: Every tag byte the decoder knows.
_TAGS = frozenset(b"sdiblfeNTF")

#: What a nested ``spans`` spec maps a key to when that value is to be
#: kept: decoded strictly and returned as a :class:`CanonicalSpan` of
#: its bytes carrying the decoded value.
KEEP = "keep"

#: A ``spans`` argument: a flat collection of top-level keys cut
#: header-only, or a nested dict of sub-specs and :data:`KEEP` markers.
Spans = Union[Collection[str], Mapping[str, Any]]


def _length(head: bytes) -> int:
    """The value of a length prefix; only the shortest decimal is canonical."""
    length = _SMALL.get(head)
    if length is None:
        if not head.isdigit() or head[0] == 48:
            raise SerializationError("non-canonical length %r" % head)
        length = int(head)
    return length


class CanonicalEncoder:
    """Encoder for the canonical byte representation of library values.

    The encoder is stateless; the class exists so that callers can
    subclass it to extend the value universe (for example to teach the
    encoder about an application-specific record type) without
    monkey-patching module functions.
    """

    #: Maximum recursion depth accepted before the encoder assumes a
    #: cyclic structure and raises :class:`SerializationError`.
    max_depth = 64

    def encode(self, value: Any) -> bytes:
        """Return the canonical byte encoding of ``value``.

        Raises
        ------
        SerializationError
            If the value (or one of its elements) is not encodable, or
            the structure is nested deeper than :attr:`max_depth`.
        """
        return self._encode(value, 0)

    # -- internal helpers -------------------------------------------------

    def _encode(self, value: Any, depth: int) -> bytes:
        out: List[bytes] = []
        self._write(value, out, depth)
        return b"".join(out)

    def _write(self, value: Any, out: List[bytes], depth: int) -> int:
        """Append the framing of ``value`` to ``out``; return its size."""
        if depth > self.max_depth:
            raise SerializationError(
                "value is nested deeper than %d levels; refusing to encode "
                "(possible cycle)" % self.max_depth
            )
        kind = type(value)
        if kind is str:
            data = value.encode()
            chunk = b"s%d:%s" % (len(data), data)
        elif kind is dict:
            return self._write_dict(value, out, depth)
        elif kind is int:
            data = b"%d" % value
            chunk = b"i%d:%s" % (len(data), data)
        elif kind is bytes:
            chunk = b"b%d:%s" % (len(value), value)
        elif kind is list or kind is tuple:
            return self._write_list(value, out, depth)
        elif kind is float:
            chunk = self._encode_float(value)
        elif value is None:
            chunk = b"N0:"
        elif value is True:
            chunk = b"T0:"
        elif value is False:
            chunk = b"F0:"
        else:
            return self._write_other(value, out, depth)
        out.append(chunk)
        return len(chunk)

    def _write_other(self, value: Any, out: List[bytes], depth: int) -> int:
        # Subclasses of the built-in types, sets and library objects.
        if isinstance(value, int):
            data = str(value).encode("ascii")
            chunk = b"i%d:%s" % (len(data), data)
        elif isinstance(value, float):
            chunk = self._encode_float(value)
        elif isinstance(value, str):
            data = value.encode("utf-8")
            chunk = b"s%d:%s" % (len(data), data)
        elif isinstance(value, (bytes, bytearray)):
            chunk = b"b%d:%s" % (len(value), value)
        elif isinstance(value, (list, tuple)):
            return self._write_list(value, out, depth)
        elif isinstance(value, dict):
            return self._write_dict(value, out, depth)
        elif isinstance(value, (set, frozenset)):
            data = b"".join(sorted(
                self._encode(item, depth + 1) for item in value
            ))
            chunk = b"e%d:%s" % (len(data), data)
        else:
            # Memoized-encoding splice point: immutable snapshot types
            # (agent states, packed transfers) expose
            # ``__canonical_bytes__`` returning their already-framed
            # canonical encoding, so a value that appears in several
            # enclosing payloads per hop — signed, wire-encoded,
            # compared — is only ever encoded once.  The hook must
            # return exactly what encoding ``to_canonical()`` would
            # produce; implementations memoize through
            # :meth:`repro.crypto.hashing.HashCache.encode_object`.
            cached_bytes = getattr(value, "__canonical_bytes__", None)
            if not callable(cached_bytes):
                to_canonical = getattr(value, "to_canonical", None)
                if not callable(to_canonical):
                    raise SerializationError(
                        "cannot canonically encode value of type %r: %r"
                        % (type(value).__name__, value)
                    )
                return self._write(to_canonical(), out, depth + 1)
            chunk = cached_bytes()
        out.append(chunk)
        return len(chunk)

    def _encode_float(self, value: float) -> bytes:
        if math.isnan(value):
            raise SerializationError("NaN is not canonically encodable")
        # Use the IEEE-754 big-endian bit pattern so that e.g. 1.0 and
        # 1 encode differently (they are different values to an agent),
        # while -0.0 is normalised to 0.0 to keep equality sensible.
        return b"f8:" + _FLOAT.pack(0.0 if value == 0.0 else value)

    def _write_list(self, value: Any, out: List[bytes], depth: int) -> int:
        slot = len(out)
        out.append(b"")
        write = self._write
        depth += 1
        size = 0
        for item in value:
            size += write(item, out, depth)
        out[slot] = header = b"l%d:" % size
        return len(header) + size

    def _write_dict(self, value: dict, out: List[bytes], depth: int) -> int:
        try:
            keys = sorted(value)
        except TypeError as exc:
            raise SerializationError(
                "canonical dictionaries require string keys: %s" % exc
            ) from exc
        slot = len(out)
        out.append(b"")
        write = self._write
        depth += 1
        size = 0
        for key in keys:
            if type(key) is not str and not isinstance(key, str):
                raise SerializationError(
                    "canonical dictionaries require string keys, got %r"
                    % (key,)
                )
            data = key.encode()
            chunk = b"s%d:%s" % (len(data), data)
            out.append(chunk)
            size += len(chunk) + write(value[key], out, depth)
        out[slot] = header = b"d%d:" % size
        return len(header) + size


class CanonicalDecoder:
    """Decoder accepting exactly the byte strings the encoder produces.

    Decoding is lossy in one deliberate way: tuples were encoded as
    sequences and therefore decode as lists.  Everything else round
    trips exactly, which is property-tested in
    ``tests/crypto/test_canonical.py``.
    """

    #: Deepest nesting accepted; the same bound the encoder enforces.
    max_depth = CanonicalEncoder.max_depth

    def decode(self, data: bytes, *,
               spans: Optional[Spans] = None,
               max_depth: Optional[int] = None) -> Any:
        """Decode a canonical byte string back into a Python value.

        ``spans`` takes one of two forms:

        * a flat collection names top-level dict keys whose values are
          returned as :class:`CanonicalSpan` objects instead of being
          decoded; only their tag-and-length header is checked, and it
          must fit inside ``data``;
        * a nested dict maps a key either to a sub-spec, applied to that
          key's value if it is a dict, or to :data:`KEEP`: that value is
          decoded strictly where it stands and returned as a
          :class:`CanonicalSpan` of its exact bytes whose ``value`` is
          the decoded value.  A nested spec decodes every byte by the
          usual rules, so it accepts exactly the inputs a plain decode
          accepts.

        Everything else is checked and decoded as usual.  ``max_depth``
        lowers the nesting bound, for bytes that were nested inside a
        larger value (such as a span's).

        Raises
        ------
        SerializationError
            If the byte string is malformed, not in canonical form, or
            has trailing garbage.
        """
        try:
            if type(data) is not bytes:
                data = bytes(data)
            value, offset = self._read(
                data, 0, len(data),
                self.max_depth if max_depth is None else max_depth, spans,
            )
        except (ValueError, TypeError) as exc:
            # Invalid UTF-8 or digits, unhashable set members, or input
            # that is not a byte string at all.
            raise SerializationError(
                "malformed canonical value: %s" % exc
            ) from exc
        if offset != len(data):
            raise SerializationError(
                "trailing bytes after canonical value (%d of %d consumed)"
                % (offset, len(data))
            )
        return value

    # -- internal helpers -------------------------------------------------

    def _read(self, data: bytes, offset: int, limit: int, room: int,
              spans: Optional[Spans] = None) -> tuple:
        """Decode the value at ``offset``; return ``(value, end)``.

        The value must end by ``limit``; ``room`` is how many more
        levels of nesting are allowed below it.  If the value is a dict,
        its keys named in ``spans`` are cut, kept or descended into (see
        :meth:`decode`).
        """
        if room < 0:
            raise SerializationError(
                "canonical value is nested deeper than %d levels"
                % self.max_depth
            )
        colon = data.find(b":", offset + 1, limit)
        if colon < 0:
            raise SerializationError("missing canonical length separator")
        head = data[offset + 1:colon]
        length = _SMALL.get(head)
        if length is None:
            length = _length(head)
        start = colon + 1
        end = start + length
        if end > limit:
            raise SerializationError("canonical payload shorter than declared")
        tag = data[offset]
        if tag == 115:  # s
            return data[start:end].decode("utf-8"), end
        room -= 1
        if tag == 100:  # d
            result = {}
            key = None
            while start < end:
                # Keys are half of all values, so their ``s`` header is
                # read here, by the same rules as above.
                colon = data.find(b":", start + 1, end)
                if data[start] != 115 or colon < 0:
                    raise SerializationError("dict key is not a string")
                head = data[start + 1:colon]
                length = _SMALL.get(head)
                if length is None:
                    length = _length(head)
                start = colon + 1 + length
                if start > end:
                    raise SerializationError("dict key shorter than declared")
                previous = key
                key = data[colon + 1:start].decode("utf-8")
                if previous is not None and key <= previous:
                    raise SerializationError("dict keys unsorted or repeated")
                if spans is None or key not in spans:
                    result[key], start = self._read(data, start, end, room)
                elif not isinstance(spans, Mapping):
                    result[key], start = self._span(data, start, end)
                elif spans[key] == KEEP:
                    value, after = self._read(data, start, end, room)
                    result[key] = CanonicalSpan(data[start:after], value)
                    start = after
                else:
                    result[key], start = self._read(
                        data, start, end, room, spans[key]
                    )
            return result, end
        if tag == 105:  # i
            text = data[start:end]
            value = _SMALL.get(text)
            if value is None:
                value = int(text)
                if b"%d" % value != text:
                    raise SerializationError("non-canonical integer %r" % text)
            return value, end
        if tag == 98:  # b
            return data[start:end], end
        if tag == 108:  # l
            items = []
            while start < end:
                value, start = self._read(data, start, end, room)
                items.append(value)
            return items, end
        if tag == 102:  # f
            if end - start != 8:
                raise SerializationError("float payload must be 8 bytes")
            value = _FLOAT.unpack_from(data, start)[0]
            if value != value or (value == 0.0 and data[start]):
                raise SerializationError("NaN or -0.0 is not canonical")
            return value, end
        if tag in _CONSTANTS:
            if end != start:
                raise SerializationError("N/T/F payload must be empty")
            return _CONSTANTS[tag], end
        if tag == 101:  # e
            items = []
            previous = b""
            while start < end:
                value, after = self._read(data, start, end, room)
                if data[start:after] <= previous:
                    raise SerializationError("set members unsorted or repeated")
                items.append(value)
                previous, start = data[start:after], after
            members = set(items)
            if len(members) != len(items):
                raise SerializationError("set members collide")
            return members, end
        raise SerializationError("unknown canonical tag %r" % chr(tag))

    @staticmethod
    def _span(data: bytes, offset: int, limit: int) -> tuple:
        """Cut the value at ``offset`` as a span, checking its header only."""
        colon = data.find(b":", offset + 1, limit)
        if colon < 0:
            raise SerializationError("missing canonical length separator")
        if data[offset] not in _TAGS:
            raise SerializationError(
                "unknown canonical tag %r" % chr(data[offset])
            )
        end = colon + 1 + _length(data[offset + 1:colon])
        if end > limit:
            raise SerializationError("canonical payload shorter than declared")
        return CanonicalSpan(data[offset:end]), end


@dataclass(frozen=True)
class CanonicalSpan:
    """The canonical bytes of one value, as they were made or received.

    The encoder splices ``data`` verbatim wherever the span is encoded,
    so a value cut from one frame travels into another unchanged.

    ``value`` is the decoded value when the span was *kept* by a nested
    ``spans`` spec of :meth:`CanonicalDecoder.decode`: ``data`` was
    decoded strictly in place and ``canonical_encode(value) == data``.
    Otherwise it is ``None`` — a span cut by a flat spec has had only
    its header checked.  Read the value with :meth:`decoded`.  Two
    spans are equal (and hash alike) when their bytes are; ``value``
    takes no part.
    """

    data: bytes
    value: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, value: Any) -> "CanonicalSpan":
        """``value`` if it is a span, else a span of its encoding."""
        return value if type(value) is cls else cls(canonical_encode(value))

    def decoded(self) -> Any:
        """The kept ``value``, else ``data`` decoded strictly.

        A kept value is shared, not copied: treat it as read-only.
        """
        if self.value is not None:
            return self.value
        return canonical_decode(self.data)

    def __canonical_bytes__(self) -> bytes:
        return self.data


_DEFAULT_ENCODER = CanonicalEncoder()
_DEFAULT_DECODER = CanonicalDecoder()


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` using the default :class:`CanonicalEncoder`."""
    return _DEFAULT_ENCODER.encode(value)


def canonical_decode(data: bytes, *,
                     spans: Optional[Spans] = None,
                     max_depth: Optional[int] = None) -> Any:
    """Decode canonical bytes using the default :class:`CanonicalDecoder`.

    ``spans`` and ``max_depth`` are those of
    :meth:`CanonicalDecoder.decode`.
    """
    return _DEFAULT_DECODER.decode(data, spans=spans, max_depth=max_depth)


#: Types whose values the decoder returns unchanged (and shares).
_ATOMS = frozenset((str, int, bool, bytes, type(None)))
_MAX_DEPTH = CanonicalEncoder.max_depth


def canonical_copy(value: Any) -> Any:
    """Return ``canonical_decode(canonical_encode(value))`` without bytes.

    The copy shares no mutable container with ``value``: dicts are
    copied (insertion order kept), lists and tuples become lists, sets
    and frozensets become sets, subclasses of the built-in types become
    plain ``str``/``int``/``float``/``bytes``/``list``/``dict``, and
    objects exposing ``to_canonical()`` are copied through their
    canonical form.  ``-0.0`` becomes ``0.0``.

    One deliberate difference from the decoder: immutable splice
    objects (those exposing ``__canonical_bytes__``, i.e. agent state
    snapshots) are shared, not expanded, so their memoized encoding
    travels with them.  ``canonical_encode`` of the copy equals
    ``canonical_encode`` of ``value``.

    Raises
    ------
    SerializationError
        Wherever :func:`canonical_encode` or :func:`canonical_decode`
        would: an unencodable value, NaN, a non-string dict key, nesting
        deeper than :attr:`CanonicalEncoder.max_depth`, or set members
        that are unhashable or collide once copied.
    """
    return _copy(value, 0)


def _copy(value: Any, depth: int) -> Any:
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        if value and depth >= _MAX_DEPTH:
            _too_deep()
        depth += 1
        result = {}
        for key, item in value.items():
            if type(key) is not str:
                key = _copy_key(key)
            result[key] = item if type(item) in _ATOMS else _copy(item, depth)
        return result
    if kind is list or kind is tuple:
        if value and depth >= _MAX_DEPTH:
            _too_deep()
        depth += 1
        return [
            item if type(item) in _ATOMS else _copy(item, depth)
            for item in value
        ]
    if kind is float:
        return _copy_float(value)
    return _copy_other(value, depth)


def _copy_other(value: Any, depth: int) -> Any:
    # Subclasses of the built-in types, sets and library objects, in
    # the order the encoder tries them.
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return _copy_float(float(value))
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return _copy(list(value), depth)
    if isinstance(value, dict):
        return _copy(dict(value), depth)
    if isinstance(value, (set, frozenset)):
        if value and depth >= _MAX_DEPTH:
            _too_deep()
        try:
            result = {_copy(item, depth + 1) for item in value}
        except TypeError as exc:
            raise SerializationError(
                "set members must stay hashable once copied: %s" % exc
            ) from exc
        if len(result) != len(value):
            raise SerializationError("set members collide once copied")
        return result
    if callable(getattr(value, "__canonical_bytes__", None)):
        return value
    to_canonical = getattr(value, "to_canonical", None)
    if not callable(to_canonical):
        raise SerializationError(
            "cannot canonically copy value of type %r: %r"
            % (type(value).__name__, value)
        )
    if depth >= _MAX_DEPTH:
        _too_deep()
    return _copy(to_canonical(), depth + 1)


def _copy_key(key: Any) -> str:
    if not isinstance(key, str):
        raise SerializationError(
            "canonical dictionaries require string keys, got %r" % (key,)
        )
    return str.__str__(key)


def _copy_float(value: float) -> float:
    if value != value:
        raise SerializationError("NaN is not canonically encodable")
    return 0.0 if value == 0.0 else value


def _too_deep() -> None:
    raise SerializationError(
        "value is nested deeper than %d levels; refusing to copy "
        "(possible cycle)" % _MAX_DEPTH
    )


def canonical_equal(left: Any, right: Any) -> bool:
    """Return whether two values have identical canonical encodings.

    This is the equality notion used when comparing a resulting agent
    state against a reference state: it ignores dict ordering and
    list/tuple distinctions but distinguishes ``1`` from ``1.0`` and
    ``True`` from ``1``.
    """
    return canonical_encode(left) == canonical_encode(right)
