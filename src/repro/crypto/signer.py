"""Signing and verification of control-plane messages.

The :class:`Signer` is held by the egress gateway of an AS and signs the AS
entries it appends to PCBs.  The :class:`Verifier` is held by ingress
gateways and checks the signature chain of incoming PCBs.  Both resolve key
material through a shared :class:`~repro.crypto.keys.KeyStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyStore
from repro.exceptions import SignatureError


@dataclass
class Signer:
    """Produces signatures on behalf of one AS."""

    as_id: int
    key_store: KeyStore

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` with the key of :attr:`as_id`."""
        return self.key_store.key_for(self.as_id).sign(message)


@dataclass
class Verifier:
    """Verifies signatures of arbitrary ASes through a key store."""

    key_store: KeyStore

    def verify(self, as_id: int, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid.

        Args:
            as_id: AS that claims to have produced the signature.
            message: Signed byte string.
            signature: Signature to check.
        """
        key = self.key_store.key_for(as_id)
        if not key.verify(message, signature):
            raise SignatureError(f"invalid signature from AS {as_id}")
