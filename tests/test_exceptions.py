"""Tests for the library exception hierarchy."""

from __future__ import annotations

import pytest

from repro import exceptions


class TestHierarchy:
    def test_everything_derives_from_reproerror(self):
        for name in exceptions.__dict__:
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not exceptions.ReproError:
                assert issubclass(obj, exceptions.ReproError), name

    def test_crypto_family(self):
        assert issubclass(exceptions.SignatureError, exceptions.CryptoError)
        assert issubclass(exceptions.KeyError_, exceptions.CryptoError)

    def test_network_family(self):
        assert issubclass(exceptions.TransportError, exceptions.NetworkError)
        assert issubclass(exceptions.HostNotFoundError, exceptions.NetworkError)

    def test_agent_family(self):
        for cls in (exceptions.MigrationError, exceptions.AgentStateError,
                    exceptions.ItineraryError, exceptions.ExecutionError,
                    exceptions.InputReplayError):
            assert issubclass(cls, exceptions.AgentError)

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.ProofError("bad proof")
        with pytest.raises(exceptions.ReproError):
            raise exceptions.ReplicationError("no quorum")
