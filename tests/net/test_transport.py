"""Tests for the agent transfer payload."""

from __future__ import annotations

import pytest

from repro.crypto.canonical import canonical_decode, canonical_encode
from repro.exceptions import TransportError
from repro.net.transport import AgentTransfer


def _transfer(**overrides):
    base = dict(
        agent_class="test-counter-agent",
        agent_id="owner/agent-1",
        owner="owner",
        state={"data": {"counter": 3}, "execution": {"hop_index": 1, "finished": False}},
        protocol_data={"mechanism": "none"},
        itinerary={"hosts": ["home", "vendor"], "fixed": False},
        hop_index=1,
    )
    base.update(overrides)
    return AgentTransfer(**base)


def _round_trip(transfer):
    wire = canonical_encode(transfer.to_canonical())
    return AgentTransfer.from_canonical(canonical_decode(wire))


class TestAgentTransfer:
    def test_round_trip(self):
        transfer = _transfer()
        restored = _round_trip(transfer)
        assert restored.agent_class == transfer.agent_class
        assert restored.state == transfer.state
        assert restored.hop_index == 1
        assert restored.protocol_data == {"mechanism": "none"}

    def test_none_protocol_data_round_trips(self):
        restored = _round_trip(_transfer(protocol_data=None))
        assert restored.protocol_data is None

    def test_missing_field_rejected(self):
        payload = _transfer().to_canonical()
        payload.pop("owner")
        with pytest.raises(TransportError):
            AgentTransfer.from_canonical(payload)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(TransportError):
            AgentTransfer.from_canonical([1, 2, 3])


_WIRE_FIELDS = ("agent_class", "agent_id", "owner", "state",
                "protocol_data", "itinerary", "hop_index")


class TestAgentTransferWireForm:
    def test_canonical_form_carries_exactly_the_wire_fields(self):
        assert sorted(_transfer().to_canonical()) == sorted(_WIRE_FIELDS)

    @pytest.mark.parametrize("field", _WIRE_FIELDS)
    def test_every_field_is_required(self, field):
        payload = _transfer().to_canonical()
        payload.pop(field)
        with pytest.raises(TransportError):
            AgentTransfer.from_canonical(payload)

    def test_non_integral_hop_index_rejected(self):
        payload = _transfer().to_canonical()
        payload["hop_index"] = "second"
        with pytest.raises(TransportError):
            AgentTransfer.from_canonical(payload)

    def test_missing_hop_index_value_rejected(self):
        payload = _transfer().to_canonical()
        payload["hop_index"] = None
        with pytest.raises(TransportError):
            AgentTransfer.from_canonical(payload)

    def test_hop_index_is_normalised_to_int(self):
        payload = _transfer().to_canonical()
        payload["hop_index"] = "2"
        restored = AgentTransfer.from_canonical(payload)
        assert restored.hop_index == 2 and isinstance(restored.hop_index, int)

    def test_malformed_payload_keeps_the_cause(self):
        with pytest.raises(TransportError) as info:
            AgentTransfer.from_canonical({})
        assert isinstance(info.value.__cause__, KeyError)

    def test_encoding_is_deterministic(self):
        assert canonical_encode(_transfer().to_canonical()) == canonical_encode(
            _transfer().to_canonical()
        )
