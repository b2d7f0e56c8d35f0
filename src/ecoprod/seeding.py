"""Deterministic seed derivation.

Every random quantity in the package flows from one master seed through
`derive_seed`, so a pipeline run is reproducible end to end and any stage
can be re-run standalone with the same sub-seed it saw inside the pipeline.

The split function is documented so other implementations can match it at
the contract level: the sub-seed for a label is the first 8 bytes of
SHA-256("<master>:<label>"), big-endian, masked to 63 bits.
"""

from __future__ import annotations

import hashlib

_MASK_63 = (1 << 63) - 1


def derive_seed(master: int, label: str) -> int:
    """Derive a stable sub-seed from a master seed and a stage label."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK_63

