"""Stable, diffable report documents for verification and search runs.

A document has three top-level keys: "report" (the deterministic payload,
byte-stable for fixed inputs: sorted keys, sorted lists, no timestamps),
"fingerprint" (a content hash of the run parameters), and "elapsed_s"
(wall-clock time, deliberately outside the stable section).  A `search`
document has a fourth, "counters" (work done by the walk), also outside
"report"; it sorts before "report", so the report section's bytes and place
at the end of the printed document do not change.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["dumps_document", "fingerprint", "make_document"]


def fingerprint(params: dict) -> str:
    """sha256 over the canonical JSON encoding of the run parameters."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("ascii")).hexdigest()


def make_document(report: dict, params: dict, elapsed_s: float,
                  counters: dict | None = None) -> dict:
    document = {
        "report": report,
        "fingerprint": fingerprint(params),
        "elapsed_s": round(elapsed_s, 6),
    }
    if counters is not None:
        document["counters"] = counters
    return document


def dumps_document(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
