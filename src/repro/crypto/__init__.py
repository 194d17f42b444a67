"""Control-plane cryptography substrate.

SCION protects path-construction beacons with per-AS signatures anchored in
a control-plane PKI, and IREC additionally relies on a collision-resistant
hash to bind on-demand algorithm payloads to the PCBs that announce them.
This package provides a self-contained simulation of those primitives:

* :mod:`repro.crypto.keys` — per-AS key material and a key store,
* :mod:`repro.crypto.signer` — signing and verification of byte strings,
* :mod:`repro.crypto.hashing` — hashing of algorithm payloads and PCBs.

The signatures are HMAC-based rather than asymmetric.  The properties the
rest of the system relies on — unforgeability without the key, detection of
any tampering with signed bytes, and binding of an algorithm hash to the
origin signature — are all preserved; see DESIGN.md for the substitution
rationale.
"""

from repro.crypto.hashing import algorithm_hash
from repro.crypto.keys import ASKeyPair, KeyStore
from repro.crypto.signer import Signer, Verifier

__all__ = [
    "ASKeyPair",
    "KeyStore",
    "Signer",
    "Verifier",
    "algorithm_hash",
]
