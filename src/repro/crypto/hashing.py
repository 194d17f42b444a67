"""Collision-resistant hashing helpers and control-plane perf counters.

Two places in IREC rely on hashing:

* the **Algorithm PCB extension** carries the hash of the on-demand
  algorithm implementation, so that a RAC fetching the executable from the
  origin AS can verify its integrity (paper §IV-C, §V-C), and
* the **egress database** stores only hashes of PCBs to bound its memory
  footprint while still being able to deduplicate (paper §V-D).

All hashes are SHA-256; the helpers return hex digests so they can be used
directly as dictionary keys and serialized without further encoding.

This module additionally hosts the library-wide **performance counters**
for the beacon fast path: every SHA-256 digest actually computed over a
beacon encoding and every HMAC signature created or checked increments a
counter here.  Cache hits (memoized digests, the ingress gateway's
verified-prefix cache) do *not* increment them, which is exactly what makes
the counters useful: the benchmark-regression harness reads them to prove
that the memoization removes work instead of merely shifting it around.
"""

from __future__ import annotations

import hashlib
from typing import Dict

#: Counts of the cryptographic operations actually performed (cache misses
#: only).  Keys:
#:
#: * ``beacon_digest``   — SHA-256 digests computed over beacon encodings,
#: * ``beacon_encode``   — full canonical beacon encodings materialized,
#: * ``signature_sign``  — HMAC signatures produced,
#: * ``signature_verify``— HMAC signatures checked.
_PERF_COUNTERS: Dict[str, int] = {
    "beacon_digest": 0,
    "beacon_encode": 0,
    "signature_sign": 0,
    "signature_verify": 0,
}


def count_crypto_op(name: str) -> None:
    """Record one occurrence of the cryptographic operation ``name``."""
    _PERF_COUNTERS[name] = _PERF_COUNTERS.get(name, 0) + 1


def perf_counters() -> Dict[str, int]:
    """Return a snapshot of the performance counters."""
    return dict(_PERF_COUNTERS)


def algorithm_hash(payload: bytes) -> str:
    """Return the hex digest binding an on-demand algorithm payload."""
    if not isinstance(payload, (bytes, bytearray)):
        raise TypeError(f"algorithm payload must be bytes, got {type(payload).__name__}")
    return hashlib.sha256(bytes(payload)).hexdigest()
