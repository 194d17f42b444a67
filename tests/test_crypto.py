"""Tests for the crypto substrate: keys, signatures and hashes."""

import pytest

from repro.crypto.hashing import algorithm_hash, beacon_digest
from repro.crypto.keys import KeyStore, derive_key
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import SignatureError


class TestKeys:
    def test_derivation_is_deterministic(self):
        assert derive_key(5) == derive_key(5)

    def test_different_ases_get_different_keys(self):
        assert derive_key(5).secret != derive_key(6).secret

    def test_sign_and_verify(self):
        key = derive_key(7)
        signature = key.sign(b"hello")
        assert key.verify(b"hello", signature)
        assert not key.verify(b"tampered", signature)

    def test_key_store_caches(self):
        store = KeyStore()
        assert store.key_for(3) is store.key_for(3)
        assert len(store) == 1

    def test_key_store_contains_any_as(self):
        store = KeyStore()
        assert 123456 in store


class TestSignerVerifier:
    def test_round_trip(self):
        store = KeyStore()
        signer = Signer(as_id=9, key_store=store)
        verifier = Verifier(key_store=store)
        signature = signer.sign(b"beacon bytes")
        verifier.verify(9, b"beacon bytes", signature)  # does not raise

    def test_wrong_as_rejected(self):
        store = KeyStore()
        signature = Signer(as_id=9, key_store=store).sign(b"msg")
        verifier = Verifier(key_store=store)
        with pytest.raises(SignatureError):
            verifier.verify(10, b"msg", signature)

    def test_tampered_message_rejected(self):
        store = KeyStore()
        signature = Signer(as_id=9, key_store=store).sign(b"msg")
        with pytest.raises(SignatureError):
            Verifier(key_store=store).verify(9, b"other", signature)

    def test_a_signature_forged_with_another_ases_key_is_rejected(self):
        store = KeyStore()
        forged = store.key_for(10).sign(b"msg")
        with pytest.raises(SignatureError):
            Verifier(key_store=store).verify(9, b"msg", forged)


class TestHashing:
    def test_algorithm_hash_is_hex_sha256(self):
        digest = algorithm_hash(b"payload")
        assert len(digest) == 64
        assert digest == algorithm_hash(b"payload")
        assert digest != algorithm_hash(b"payload2")

    def test_algorithm_hash_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            algorithm_hash("not bytes")  # type: ignore[arg-type]

    def test_beacon_digest_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            beacon_digest(42)  # type: ignore[arg-type]
