"""Tests for the canonical serialization codec."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.state import AgentState
from repro.crypto.canonical import (
    KEEP,
    CanonicalDecoder,
    CanonicalEncoder,
    CanonicalSpan,
    canonical_copy,
    canonical_decode,
    canonical_encode,
    canonical_equal,
)
from repro.exceptions import SerializationError


# ---------------------------------------------------------------------------
# basic encoding behaviour
# ---------------------------------------------------------------------------


class TestEncodingBasics:
    def test_none_bool_distinguished(self):
        assert canonical_encode(None) != canonical_encode(False)
        assert canonical_encode(True) != canonical_encode(False)

    def test_int_and_float_distinguished(self):
        assert canonical_encode(1) != canonical_encode(1.0)

    def test_bool_and_int_distinguished(self):
        assert canonical_encode(True) != canonical_encode(1)

    def test_str_and_bytes_distinguished(self):
        assert canonical_encode("ab") != canonical_encode(b"ab")

    def test_dict_order_independent(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_list_and_tuple_encode_identically(self):
        assert canonical_encode([1, 2, 3]) == canonical_encode((1, 2, 3))

    def test_set_order_independent(self):
        assert canonical_encode({1, 2, 3}) == canonical_encode({3, 1, 2})

    def test_nested_structures(self):
        value = {"outer": [{"inner": (1, 2)}, {"other": None}]}
        encoded = canonical_encode(value)
        assert isinstance(encoded, bytes)
        assert len(encoded) > 0

    def test_negative_zero_normalised(self):
        assert canonical_encode(-0.0) == canonical_encode(0.0)

    def test_large_integers(self):
        big = 2 ** 521 - 1
        assert canonical_decode(canonical_encode(big)) == big

    def test_unicode_strings(self):
        text = "prix: 100€ — Straße"
        assert canonical_decode(canonical_encode(text)) == text


class TestEncodingErrors:
    def test_nan_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode(float("nan"))

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode({1: "a"})

    def test_unencodable_object_rejected(self):
        class Opaque:
            pass

        with pytest.raises(SerializationError):
            canonical_encode(Opaque())

    def test_cycle_detected_via_depth_limit(self):
        cyclic = []
        cyclic.append(cyclic)
        with pytest.raises(SerializationError):
            canonical_encode(cyclic)

    def test_object_with_to_canonical_is_encoded(self):
        class WithCanonical:
            def to_canonical(self):
                return {"kind": "custom", "value": 42}

        encoded = canonical_encode(WithCanonical())
        assert canonical_decode(encoded) == {"kind": "custom", "value": 42}


# ---------------------------------------------------------------------------
# decoding behaviour
# ---------------------------------------------------------------------------


class TestDecoding:
    def test_trailing_garbage_rejected(self):
        data = canonical_encode(1) + b"junk"
        with pytest.raises(SerializationError):
            canonical_decode(data)

    def test_truncated_payload_rejected(self):
        data = canonical_encode("hello")[:-2]
        with pytest.raises(SerializationError):
            canonical_decode(data)

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            canonical_decode(b"Z1:a")

    def test_missing_length_separator_rejected(self):
        with pytest.raises(SerializationError):
            canonical_decode(b"i5")

    def test_dict_round_trip(self):
        value = {"name": "agent", "hops": [1, 2, 3], "meta": {"x": None}}
        assert canonical_decode(canonical_encode(value)) == value

    def test_bytes_round_trip(self):
        value = b"\x00\x01\xff binary"
        assert canonical_decode(canonical_encode(value)) == value

    def test_set_round_trip(self):
        assert canonical_decode(canonical_encode({1, 2, 3})) == {1, 2, 3}


# ---------------------------------------------------------------------------
# canonical_equal
# ---------------------------------------------------------------------------


class TestCanonicalEqual:
    def test_equal_dicts_in_different_order(self):
        assert canonical_equal({"a": 1, "b": [2]}, {"b": [2], "a": 1})

    def test_tuple_equals_list(self):
        assert canonical_equal((1, 2), [1, 2])

    def test_int_not_equal_float(self):
        assert not canonical_equal(1, 1.0)

    def test_different_values_unequal(self):
        assert not canonical_equal({"a": 1}, {"a": 2})


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=30),
    st.binary(max_size=30),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


class TestCanonicalProperties:
    @given(value=_values)
    @settings(max_examples=150)
    def test_encoding_is_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(value=_values)
    @settings(max_examples=150)
    def test_round_trip_preserves_canonical_form(self, value):
        decoded = canonical_decode(canonical_encode(value))
        # Tuples decode as lists, so compare canonically rather than by ==.
        assert canonical_equal(value, decoded)

    @given(value=_values)
    @settings(max_examples=100)
    def test_decoder_instance_matches_module_function(self, value):
        encoder = CanonicalEncoder()
        decoder = CanonicalDecoder()
        assert canonical_equal(decoder.decode(encoder.encode(value)), value)

    @given(left=_values, right=_values)
    @settings(max_examples=100)
    def test_equal_encodings_imply_canonical_equality(self, left, right):
        if canonical_encode(left) == canonical_encode(right):
            assert canonical_equal(left, right)
        else:
            assert not canonical_equal(left, right)


# ---------------------------------------------------------------------------
# byte-identity oracle: the original recursive encoder
# ---------------------------------------------------------------------------


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + str(len(payload)).encode("ascii") + b":" + payload


def reference_encode(value, depth=0):
    """The codec's first encoder: one fresh ``bytes`` per nesting level."""
    if depth > CanonicalEncoder.max_depth:
        raise SerializationError("too deep")
    if value is None:
        return _frame(b"N", b"")
    if value is True:
        return _frame(b"T", b"")
    if value is False:
        return _frame(b"F", b"")
    if isinstance(value, int):
        return _frame(b"i", str(value).encode("ascii"))
    if isinstance(value, float):
        if math.isnan(value):
            raise SerializationError("NaN")
        return _frame(b"f", struct.pack(">d", 0.0 if value == 0.0 else value))
    if isinstance(value, str):
        return _frame(b"s", value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _frame(b"b", bytes(value))
    if isinstance(value, (list, tuple)):
        return _frame(b"l", b"".join(
            reference_encode(item, depth + 1) for item in value))
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise SerializationError("non-string key")
        return _frame(b"d", b"".join(
            reference_encode(key, depth + 1)
            + reference_encode(value[key], depth + 1)
            for key in sorted(value)))
    if isinstance(value, (set, frozenset)):
        return _frame(b"e", b"".join(sorted(
            reference_encode(item, depth + 1) for item in value)))
    cached_bytes = getattr(value, "__canonical_bytes__", None)
    if callable(cached_bytes):
        return cached_bytes()
    to_canonical = getattr(value, "to_canonical", None)
    if callable(to_canonical):
        return reference_encode(to_canonical(), depth + 1)
    raise SerializationError("unencodable %r" % (value,))


class _ToCanonical:
    def __init__(self, value):
        self.value = value

    def to_canonical(self):
        return self.value


class _Spliced:
    def __init__(self, value):
        self.data = reference_encode(value)

    def __canonical_bytes__(self):
        return self.data


class _Text(str):
    pass


class _Count(int):
    pass


_hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.floats(allow_nan=False, width=64),
    st.text(max_size=10),
    st.binary(max_size=10),
)

_wide_values = st.recursive(
    st.one_of(
        _scalars,
        st.builds(_Text, st.text(max_size=8)),
        st.builds(_Count, st.integers()),
        st.builds(bytearray, st.binary(max_size=8)),
        st.sets(_hashable_scalars, max_size=5),
        st.frozensets(_hashable_scalars, max_size=5),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.builds(_ToCanonical, children),
        st.builds(_Spliced, children),
    ),
    max_leaves=25,
)


class TestByteIdentity:
    @given(value=_wide_values)
    @settings(max_examples=300)
    def test_encoder_matches_the_reference_encoder(self, value):
        assert canonical_encode(value) == reference_encode(value)


# ---------------------------------------------------------------------------
# canonical_copy: the round trip without bytes
# ---------------------------------------------------------------------------

#: Every value kind of ``_wide_values`` except splice objects, which the
#: decoder expands but the copy shares.
_round_trip_values = st.recursive(
    st.one_of(
        _scalars,
        st.builds(_Text, st.text(max_size=8)),
        st.builds(_Count, st.integers()),
        st.builds(bytearray, st.binary(max_size=8)),
        st.sets(_hashable_scalars, max_size=5),
        st.frozensets(_hashable_scalars, max_size=5),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.builds(_ToCanonical, children),
    ),
    max_leaves=25,
)

_state_dicts = st.dictionaries(st.text(max_size=6), _values, max_size=4)
_agent_states = st.builds(AgentState, _state_dicts, _state_dicts)

#: Values with agent states embedded at any depth.
_values_with_states = st.recursive(
    st.one_of(_scalars, _agent_states),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.builds(_ToCanonical, children),
    ),
    max_leaves=15,
)

_CONTAINERS = (dict, list, tuple, set, frozenset, bytearray)


def _typed(value):
    """``value`` with every node's exact type made part of equality."""
    kind = type(value)
    if kind is dict:
        return kind, sorted((key, _typed(item)) for key, item in value.items())
    if kind is list or kind is tuple:
        return kind, [_typed(item) for item in value]
    if kind is set or kind is frozenset:
        return kind, sorted(map(canonical_encode, value))
    return kind, value


def _container_ids(value, found):
    """ids of the mutable containers reachable from ``value``."""
    if isinstance(value, _CONTAINERS):
        found.add(id(value))
        items = value.values() if isinstance(value, dict) else value
        if not isinstance(value, bytearray):
            for item in items:
                _container_ids(item, found)
    elif isinstance(value, _ToCanonical):
        _container_ids(value.value, found)
    return found


def _states_in(value, found):
    if isinstance(value, AgentState):
        found.append(value)
    elif isinstance(value, dict):
        for item in value.values():
            _states_in(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _states_in(item, found)
    elif isinstance(value, _ToCanonical):
        _states_in(value.value, found)
    return found


class TestCanonicalCopy:
    @given(value=_round_trip_values)
    @settings(max_examples=300)
    def test_copy_equals_the_decoded_encoding(self, value):
        decoded = canonical_decode(canonical_encode(value))
        copied = canonical_copy(value)
        assert copied == decoded
        assert _typed(copied) == _typed(decoded)

    @given(value=_values_with_states)
    @settings(max_examples=200)
    def test_copy_encodes_like_the_original_and_shares_states(self, value):
        copied = canonical_copy(value)
        assert canonical_encode(copied) == canonical_encode(value)
        assert [id(s) for s in _states_in(copied, [])] == [
            id(s) for s in _states_in(value, [])
        ]

    @given(value=st.one_of(_round_trip_values, _values_with_states))
    @settings(max_examples=200)
    def test_copy_shares_no_mutable_container(self, value):
        copied = canonical_copy(value)
        assert not _container_ids(copied, set()) & _container_ids(value, set())

    def test_subclasses_and_tuples_become_plain_values(self):
        copied = canonical_copy({"t": (1, _Text("a")), "n": _Count(3),
                                 "b": bytearray(b"x"), "z": -0.0})
        assert copied == {"t": [1, "a"], "n": 3, "b": b"x", "z": 0.0}
        assert type(copied["t"][1]) is str
        assert type(copied["n"]) is int
        assert type(copied["b"]) is bytes
        assert math.copysign(1.0, copied["z"]) == 1.0

    @pytest.mark.parametrize("value", [
        float("nan"),
        {1: "non-string key"},
        object(),
        {(1, 2)},
    ], ids=["nan", "int-key", "object", "set-of-tuples"])
    def test_what_cannot_round_trip_is_a_typed_error(self, value):
        with pytest.raises(SerializationError):
            canonical_copy(value)

    def test_depth_limit_matches_the_encoder(self):
        deepest = canonical_decode(_nested_lists(CanonicalEncoder.max_depth))
        assert canonical_copy(deepest) == deepest
        with pytest.raises(SerializationError):
            canonical_encode([deepest])
        with pytest.raises(SerializationError):
            canonical_copy([deepest])


#: ``(value, hex encoding)``: every tag, unicode, a 157-digit int,
#: ``-0.0``, tuples, sets, ``to_canonical()`` and a splice.
GOLDEN = [
    (None, "4e303a"),
    (True, "54303a"),
    (False, "46303a"),
    (0, "69313a30"),
    (-7, "69323a2d37"),
    (2 ** 521 - 1,
        "693135373a3638363437393736363031333036303937313439383139"
        "30303739393038313339333231373236393433353330303134333330"
        "35343039333934343633343539313835353433313833333937363536"
        "30353231323235353936343036363134353435353439373732393633"
        "31313339313438303835383033373132313938373939393731363634"
        "33383132353734303238323931313135303537313531"),
    (1.5, "66383a3ff8000000000000"),
    (-0.0, "66383a0000000000000000"),
    (float("inf"), "66383a7ff0000000000000"),
    ("", "73303a"),
    ("prix: 100€ — Straße",
        "7332343a707269783a20313030e282ac20e280942053747261c39f65"),
    (b"\x00\xff", "62323a00ff"),
    ([], "6c303a"),
    ((1, "a"), "6c383a69313a3173313a61"),
    ({"b": 1, "a": [None]}, "6431383a73313a616c333a4e303a73313a6269313a31"),
    ({3, 1, 2}, "6531323a69313a3169313a3269313a33"),
    (frozenset({"x"}), "65343a73313a78"),
    (_ToCanonical({"kind": "custom", "value": 42}),
        "6432393a73343a6b696e6473363a637573746f6d73353a76616c756569323a3432"),
    ({"state": _Spliced({"pre": [1, "encoded"]})},
        "6433363a73353a73746174656432343a73333a7072656c31343a69313a3173373a"
        "656e636f646564"),
]


@pytest.mark.parametrize("value, expected", GOLDEN,
                         ids=[str(index) for index in range(len(GOLDEN))])
def test_golden_encoding(value, expected):
    encoded = canonical_encode(value)
    assert encoded.hex() == expected
    assert canonical_encode(canonical_decode(encoded)) == encoded


# ---------------------------------------------------------------------------
# hostile input: typed errors only, canonical bytes only
# ---------------------------------------------------------------------------


def _nested_lists(levels: int) -> bytes:
    data = b"N0:"
    for _ in range(levels):
        data = b"l%d:%s" % (len(data), data)
    return data


#: Inputs the decoder must reject, each with a ``SerializationError``.
HOSTILE = {
    "900-deep": _nested_lists(900),
    "65-deep": _nested_lists(CanonicalEncoder.max_depth + 1),
    "length-beyond-body": b"s10:abc",
    "length-beyond-container": b"l3:s5:abcde",
    "5000-digit-int": b"i5000:" + b"7" * 5000,
    "5000-digit-length": b"s" + b"9" * 5000 + b":",
    "non-string-key": b"d6:i1:1N0:",
    "unsorted-keys": b"d14:s1:bN0:s1:aN0:",
    "duplicate-keys": b"d14:s1:aN0:s1:aT0:",
    "unsorted-set": b"e8:i1:2i1:1",
    "duplicate-set-members": b"e8:i1:1i1:1",
    "colliding-set-members": b"e7:T0:i1:1",
    "unhashable-set-member": b"e3:l0:",
    "invalid-utf8": b"s2:\xff\xfe",
    "int-not-digits": b"i2:ab",
    "int-leading-zero": b"i3:007",
    "int-plus-sign": b"i2:+7",
    "int-negative-zero": b"i2:-0",
    "int-underscore": b"i3:1_0",
    "int-empty": b"i0:",
    "float-short": b"f3:abc",
    "float-negative-zero": b"f8:" + struct.pack(">d", -0.0),
    "float-nan": b"f8:" + struct.pack(">d", math.nan),
    "length-space": b"s 1:a",
    "length-plus": b"s+1:a",
    "length-leading-zero": b"s01:a",
    "length-negative-zero": b"l-0:",
    "length-empty": b"s:",
    "none-with-payload": b"N1:x",
    "true-with-payload": b"T1:x",
    "unknown-tag": b"Z1:a",
    "empty": b"",
    "trailing": b"N0:N0:",
}


class TestHostileInput:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_rejected_with_a_typed_error(self, name):
        with pytest.raises(SerializationError):
            canonical_decode(HOSTILE[name])

    def test_decode_limit_matches_the_encoder(self):
        deepest = _nested_lists(CanonicalEncoder.max_depth)
        assert canonical_encode(canonical_decode(deepest)) == deepest
        assert CanonicalDecoder.max_depth == CanonicalEncoder.max_depth

    def test_non_bytes_input_is_a_typed_error(self):
        with pytest.raises(SerializationError):
            canonical_decode("N0:")

    def test_bytes_like_input_is_accepted(self):
        data = canonical_encode({"a": [1, b"x"]})
        assert canonical_decode(memoryview(data)) == {"a": [1, b"x"]}
        assert canonical_decode(bytearray(data)) == {"a": [1, b"x"]}

    @given(value=_values, data=st.data())
    @settings(max_examples=300)
    def test_one_byte_edit_raises_or_is_canonical(self, value, data):
        encoded = bytearray(canonical_encode(value))
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        index = data.draw(st.integers(0, len(encoded) - (kind != "insert")))
        if kind == "delete":
            del encoded[index]
        else:
            byte = data.draw(st.integers(0, 255))
            if kind == "insert":
                encoded.insert(index, byte)
            else:
                encoded[index] = byte
        mutated = bytes(encoded)
        try:
            decoded = canonical_decode(mutated)
        except SerializationError:
            return
        assert canonical_encode(decoded) == mutated


# ---------------------------------------------------------------------------
# shallow decode: named top-level values kept as canonical spans
# ---------------------------------------------------------------------------

_SPANS = frozenset(("observed_state", "prev_session"))

_frames = st.builds(
    lambda named, others: {**others, **named},
    st.fixed_dictionaries({}, optional={"observed_state": _values,
                                        "prev_session": _values}),
    st.dictionaries(st.text(max_size=8), _values, min_size=1, max_size=4),
)


def _span_ranges(frame: dict) -> list:
    """``(start, end)`` of each span value inside ``canonical_encode(frame)``."""
    body = b"".join(
        canonical_encode(key) + canonical_encode(frame[key])
        for key in sorted(frame)
    )
    offset = len(b"d%d:" % len(body))
    ranges = []
    for key in sorted(frame):
        offset += len(canonical_encode(key))
        size = len(canonical_encode(frame[key]))
        if key in _SPANS:
            ranges.append((offset, offset + size))
        offset += size
    return ranges


def _agrees_with_full_decode(shallow, full) -> None:
    if not isinstance(full, dict):
        assert canonical_encode(shallow) == canonical_encode(full)
        return
    assert shallow.keys() == full.keys()
    for key, value in shallow.items():
        if key in _SPANS:
            assert isinstance(value, CanonicalSpan)
            decoded = canonical_decode(
                value.data, max_depth=CanonicalDecoder.max_depth - 1
            )
            assert canonical_encode(decoded) == value.data
            assert canonical_encode(full[key]) == value.data
        else:
            assert canonical_encode(value) == canonical_encode(full[key])


class TestShallowDecode:
    @given(frame=_frames)
    @settings(max_examples=200)
    def test_spans_hold_the_encoding_and_the_rest_decodes_in_full(
            self, frame):
        data = canonical_encode(frame)
        shallow = canonical_decode(data, spans=_SPANS)
        _agrees_with_full_decode(shallow, canonical_decode(data))
        # A span splices back verbatim.
        assert canonical_encode(shallow) == data

    @given(frame=_frames, data=st.data())
    @settings(max_examples=300)
    def test_a_top_level_edit_raises_whenever_a_full_decode_does(
            self, frame, data):
        encoded = bytearray(canonical_encode(frame))
        ranges = _span_ranges(frame)
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        # Positions outside every span: the top level's headers, keys
        # and non-span values.  An insert may sit on a span's edge.
        if kind == "insert":
            outside = [i for i in range(len(encoded) + 1)
                       if not any(lo < i < hi for lo, hi in ranges)]
        else:
            outside = [i for i in range(len(encoded))
                       if not any(lo <= i < hi for lo, hi in ranges)]
        index = data.draw(st.sampled_from(outside))
        if kind == "delete":
            del encoded[index]
        else:
            byte = data.draw(st.integers(0, 255))
            if kind == "insert":
                encoded.insert(index, byte)
            else:
                encoded[index] = byte
        mutated = bytes(encoded)
        try:
            full = canonical_decode(mutated)
        except SerializationError:
            with pytest.raises(SerializationError):
                canonical_decode(mutated, spans=_SPANS)
            return
        shallow = canonical_decode(mutated, spans=_SPANS)
        _agrees_with_full_decode(shallow, full)

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_input_is_rejected_with_spans_too(self, name):
        with pytest.raises(SerializationError):
            canonical_decode(HOSTILE[name], spans=frozenset("ab"))

    def test_only_the_span_header_is_checked(self):
        inner = b"d9:s1:as5:ab"  # the inner string's length lies
        data = b"d%d:s12:prev_session%s" % (16 + len(inner), inner)
        with pytest.raises(SerializationError):
            canonical_decode(data)
        assert canonical_decode(data, spans=_SPANS) == {
            "prev_session": CanonicalSpan(inner)
        }

    @pytest.mark.parametrize("span", [b"d99:", b"x0:", b"d:", b"d01:", b"d"])
    def test_a_span_header_must_be_canonical_and_fit(self, span):
        data = b"d%d:s12:prev_session%s" % (16 + len(span), span)
        with pytest.raises(SerializationError):
            canonical_decode(data, spans=_SPANS)

    def test_spans_apply_to_the_top_level_only(self):
        value = {"outer": {"prev_session": [1]}, "prev_session": [2]}
        shallow = canonical_decode(canonical_encode(value), spans=_SPANS)
        assert shallow["outer"] == {"prev_session": [1]}
        assert shallow["prev_session"] == CanonicalSpan(canonical_encode([2]))

    def test_a_span_keeps_one_level_less_depth(self):
        deepest = _nested_lists(CanonicalEncoder.max_depth)
        canonical_decode(deepest)
        with pytest.raises(SerializationError):
            canonical_decode(deepest,
                             max_depth=CanonicalDecoder.max_depth - 1)

    def test_span_of_encodes_once_and_passes_spans_through(self):
        span = CanonicalSpan.of({"b": 1, "a": [2]})
        assert span.data == canonical_encode({"a": [2], "b": 1})
        assert CanonicalSpan.of(span) is span
        assert canonical_encode({"x": span}) == canonical_encode(
            {"x": {"a": [2], "b": 1}}
        )
        with pytest.raises(AttributeError):
            span.data = b"N0:"


# ---------------------------------------------------------------------------
# nested spans: named parts decoded in place and kept with their bytes
# ---------------------------------------------------------------------------

_NESTED = {"outer": {"kept": KEEP, "inner": {"kept": KEEP}}, "top": KEEP}

_outer_values = st.one_of(
    _values,
    st.builds(
        lambda named, others: {**others, **named},
        st.fixed_dictionaries({}, optional={
            "kept": _values,
            "inner": st.one_of(
                _values,
                st.fixed_dictionaries({}, optional={"kept": _values}),
            ),
        }),
        st.dictionaries(st.text(max_size=4), _values, max_size=2),
    ),
)

_nested_frames = st.one_of(
    _values,
    st.builds(
        lambda named, others: {**others, **named},
        st.fixed_dictionaries({}, optional={"top": _values,
                                            "outer": _outer_values}),
        st.dictionaries(st.text(max_size=8), _values, max_size=3),
    ),
)


def _kept_spans(value, found):
    """Every span a nested decode left in ``value``'s dicts."""
    if type(value) is CanonicalSpan:
        found.append(value)
    elif isinstance(value, dict):
        for item in value.values():
            _kept_spans(item, found)
    return found


def _plain(value):
    """``value`` with every kept span replaced by its decoded value."""
    if type(value) is CanonicalSpan:
        return value.value
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class TestNestedSpans:
    @given(frame=_nested_frames)
    @settings(max_examples=300)
    def test_a_kept_part_is_its_value_and_its_exact_bytes(self, frame):
        data = canonical_encode(frame)
        nested = canonical_decode(data, spans=_NESTED)
        for span in _kept_spans(nested, []):
            assert canonical_encode(span.value) == span.data
            assert span.decoded() is span.value
        # Spans splice back verbatim, and the values are the full decode.
        assert canonical_encode(nested) == data
        assert canonical_encode(_plain(nested)) == data

    def test_the_spec_keeps_exactly_the_parts_it_names(self):
        frame = {"outer": {"kept": {"a": [1]}, "inner": {"kept": "x"},
                           "other": {"kept": 2}},
                 "top": None, "rest": {"top": 3}}
        nested = canonical_decode(canonical_encode(frame), spans=_NESTED)
        assert nested["outer"]["kept"] == CanonicalSpan(
            canonical_encode({"a": [1]}))
        assert nested["outer"]["kept"].value == {"a": [1]}
        assert nested["outer"]["inner"]["kept"].value == "x"
        assert nested["outer"]["other"] == {"kept": 2}
        assert nested["top"] == CanonicalSpan(b"N0:")
        assert nested["top"].decoded() is None
        assert nested["rest"] == {"top": 3}

    def test_a_sub_spec_over_a_value_that_is_no_dict_decodes_it_plainly(self):
        frame = {"outer": [{"kept": 1}], "top": 2}
        nested = canonical_decode(canonical_encode(frame), spans=_NESTED)
        assert nested["outer"] == [{"kept": 1}]
        assert nested["top"].value == 2

    def test_value_takes_no_part_in_equality(self):
        data = canonical_encode({"a": 1})
        assert CanonicalSpan(data, {"a": 1}) == CanonicalSpan(data)
        assert hash(CanonicalSpan(data, {"a": 1})) == hash(CanonicalSpan(data))
        assert CanonicalSpan(data).decoded() == {"a": 1}

    @given(frame=_nested_frames, data=st.data())
    @settings(max_examples=400)
    def test_a_nested_spec_never_changes_which_inputs_are_accepted(
            self, frame, data):
        encoded = bytearray(canonical_encode(frame))
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        index = data.draw(st.integers(0, len(encoded) - (kind != "insert")))
        if kind == "delete":
            del encoded[index]
        else:
            byte = data.draw(st.integers(0, 255))
            if kind == "insert":
                encoded.insert(index, byte)
            else:
                encoded[index] = byte
        mutated = bytes(encoded)
        try:
            full = canonical_decode(mutated)
        except SerializationError:
            with pytest.raises(SerializationError):
                canonical_decode(mutated, spans=_NESTED)
            return
        nested = canonical_decode(mutated, spans=_NESTED)
        assert canonical_encode(_plain(nested)) == canonical_encode(full)

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_input_is_rejected_with_a_nested_spec_too(self, name):
        with pytest.raises(SerializationError):
            canonical_decode(HOSTILE[name], spans={"a": KEEP, "b": {"a": KEEP}})

    @pytest.mark.parametrize("levels", [CanonicalEncoder.max_depth - 1,
                                        CanonicalEncoder.max_depth])
    def test_a_kept_part_is_held_to_the_depth_bound(self, levels):
        lists = _nested_lists(levels)
        data = b"d%d:s3:top%s" % (6 + len(lists), lists)
        if levels < CanonicalEncoder.max_depth:
            assert canonical_decode(data, spans=_NESTED)["top"].data == lists
            return
        with pytest.raises(SerializationError):
            canonical_decode(data)
        with pytest.raises(SerializationError):
            canonical_decode(data, spans=_NESTED)
