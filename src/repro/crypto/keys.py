"""Per-AS key material.

Every AS owns a symmetric signing key derived deterministically from the AS
identifier and an optional deployment secret.  A :class:`KeyStore` plays the
role of the control-plane PKI: it hands out the *verification* material for
any AS, which in this simulation equals the signing key (see the package
docstring for why an HMAC-based simulation is sufficient for the
reproduction).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.crypto.hashing import count_crypto_op


@dataclass(frozen=True)
class ASKeyPair:
    """Signing material owned by one AS.

    Attributes:
        as_id: Identifier of the owning AS.
        secret: Symmetric key bytes used both to sign and to verify.
    """

    as_id: int
    secret: bytes

    def sign(self, message: bytes) -> bytes:
        """Return the signature over ``message``."""
        count_crypto_op("signature_sign")
        return hmac.new(self.secret, message, hashlib.sha256).digest()

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return ``True`` if ``signature`` is valid for ``message``."""
        count_crypto_op("signature_verify")
        expected = hmac.new(self.secret, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)


def derive_key(as_id: int, deployment_secret: bytes = b"irec-repro") -> ASKeyPair:
    """Derive the deterministic key pair of an AS.

    Keys are derived from the AS identifier and a deployment-wide secret so
    that simulations are reproducible without persisting key material.
    """
    material = hashlib.sha256(
        deployment_secret + b"|" + str(int(as_id)).encode("ascii")
    ).digest()
    return ASKeyPair(as_id=int(as_id), secret=material)


@dataclass
class KeyStore:
    """Key directory standing in for the SCION control-plane PKI.

    The store lazily derives keys for any AS that is queried, which keeps
    large simulated topologies cheap: no setup pass over all ASes is needed.

    Attributes:
        deployment_secret: Secret mixed into every derived key.  Two stores
            created with different secrets produce mutually unverifiable
            signatures, which the tests use to model a foreign attacker.
    """

    deployment_secret: bytes = b"irec-repro"
    _keys: Dict[int, ASKeyPair] = field(default_factory=dict)

    def key_for(self, as_id: int) -> ASKeyPair:
        """Return (and cache) the key pair of ``as_id``."""
        as_id = int(as_id)
        key = self._keys.get(as_id)
        if key is None:
            key = derive_key(as_id, self.deployment_secret)
            self._keys[as_id] = key
        return key

    def __contains__(self, as_id: int) -> bool:
        return True  # every AS can be resolved by derivation

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)
