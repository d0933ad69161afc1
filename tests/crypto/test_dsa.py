"""Tests for the pure-Python DSA implementation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dsa import (
    DSAParameters,
    DSASignature,
    PARAMETERS_512,
    PARAMETERS_1024,
    generate_keypair,
    generate_parameters,
    is_probable_prime,
)
from repro.exceptions import CryptoError


class TestPrimality:
    def test_small_primes(self):
        for prime in (2, 3, 5, 7, 11, 13, 101, 7919):
            assert is_probable_prime(prime)

    def test_small_composites(self):
        for composite in (1, 4, 6, 9, 15, 100, 7917):
            assert not is_probable_prime(composite)

    def test_carmichael_number_rejected(self):
        # 561 = 3 * 11 * 17 fools the plain Fermat test but not Miller-Rabin.
        assert not is_probable_prime(561)

    def test_large_known_prime(self):
        assert is_probable_prime(2 ** 127 - 1)


class TestParameters:
    def test_builtin_512_parameters_are_valid(self):
        PARAMETERS_512.validate()
        assert PARAMETERS_512.p.bit_length() == 512

    def test_builtin_1024_parameters_are_valid(self):
        PARAMETERS_1024.validate()
        assert PARAMETERS_1024.p.bit_length() == 1024

    def test_invalid_parameters_rejected(self):
        broken = DSAParameters(p=PARAMETERS_512.p, q=PARAMETERS_512.q + 2,
                               g=PARAMETERS_512.g)
        with pytest.raises(CryptoError):
            broken.validate()

    def test_generate_small_parameters(self):
        params = generate_parameters(modulus_bits=128, subgroup_bits=48, seed=7)
        params.validate()
        assert params.p.bit_length() == 128

    def test_generation_is_deterministic_per_seed(self):
        first = generate_parameters(modulus_bits=96, subgroup_bits=40, seed=3)
        second = generate_parameters(modulus_bits=96, subgroup_bits=40, seed=3)
        assert (first.p, first.q, first.g) == (second.p, second.q, second.g)

    def test_subgroup_must_be_smaller_than_modulus(self):
        with pytest.raises(CryptoError):
            generate_parameters(modulus_bits=64, subgroup_bits=64)


class TestKeyPairs:
    def test_keypair_is_deterministic_per_seed(self):
        first_private, first_public = generate_keypair(seed=99)
        second_private, second_public = generate_keypair(seed=99)
        assert first_private.x == second_private.x
        assert first_public.y == second_public.y

    def test_different_seeds_different_keys(self):
        _, public_a = generate_keypair(seed=1)
        _, public_b = generate_keypair(seed=2)
        assert public_a.y != public_b.y

    def test_fingerprint_is_stable(self):
        _, public = generate_keypair(seed=5)
        assert public.fingerprint() == public.fingerprint()
        assert len(public.fingerprint()) == 16


class TestSignVerify:
    def setup_method(self):
        self.private, self.public = generate_keypair(seed=42)

    def test_round_trip(self):
        signature = self.private.sign(b"agent state digest")
        assert self.public.verify(b"agent state digest", signature)

    def test_signing_is_deterministic(self):
        assert self.private.sign(b"m") == self.private.sign(b"m")

    def test_different_messages_different_signatures(self):
        assert self.private.sign(b"m1") != self.private.sign(b"m2")

    def test_tampered_message_fails(self):
        signature = self.private.sign(b"original")
        assert not self.public.verify(b"tampered", signature)

    def test_tampered_signature_fails(self):
        signature = self.private.sign(b"original")
        broken = DSASignature(r=signature.r, s=(signature.s + 1) % self.public.parameters.q)
        assert not self.public.verify(b"original", broken)

    def test_wrong_key_fails(self):
        _, other_public = generate_keypair(seed=1234)
        signature = self.private.sign(b"original")
        assert not other_public.verify(b"original", signature)

    def test_out_of_range_signature_rejected(self):
        q = self.public.parameters.q
        assert not self.public.verify(b"m", DSASignature(r=0, s=1))
        assert not self.public.verify(b"m", DSASignature(r=1, s=0))
        assert not self.public.verify(b"m", DSASignature(r=q, s=1))

    def test_empty_message(self):
        signature = self.private.sign(b"")
        assert self.public.verify(b"", signature)

    def test_large_message(self):
        message = b"x" * 100_000
        assert self.public.verify(message, self.private.sign(message))

    def test_signature_canonical_round_trip(self):
        signature = self.private.sign(b"payload")
        restored = DSASignature.from_canonical(signature.to_canonical())
        assert restored == signature

    def test_1024_bit_round_trip(self):
        private, public = generate_keypair(PARAMETERS_1024, seed=77)
        signature = private.sign(b"bigger keys")
        assert public.verify(b"bigger keys", signature)


class TestSignVerifyProperties:
    @given(message=st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_any_message_round_trips(self, message):
        private, public = generate_keypair(seed=2024)
        assert public.verify(message, private.sign(message))

    @given(message=st.binary(min_size=1, max_size=64),
           flip=st.integers(min_value=0, max_value=63))
    @settings(max_examples=25, deadline=None)
    def test_bit_flips_break_verification(self, message, flip):
        private, public = generate_keypair(seed=2025)
        signature = private.sign(message)
        index = flip % len(message)
        tampered = bytearray(message)
        tampered[index] ^= 0x01
        assert not public.verify(bytes(tampered), signature)
