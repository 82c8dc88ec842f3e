"""Output check for one workload unit.

A unit's outputs are a JSON-able dict with three sections the check
knows about:

* ``ar`` — approximation ratios, each must lie in [0, 1];
* ``po_duration`` — Step-I mixer durations (dt), each a multiple of
  32 dt and no longer than the matching ``raw_mixer`` entry;
* ``raw_mixer`` — the uncompressed mixer durations they came from.

Anything else (counts digests, iteration counts) is covered by the
exact digest only.  For the seeds in ``references.json`` every AR must
match the recorded one within :data:`AR_TOLERANCE` and every duration
exactly; whether the whole output is byte-identical to the reference is
reported beside it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: absolute AR tolerance against a recorded reference
AR_TOLERANCE = 0.02

#: Gaussian-waveform granularity of mixer durations, in dt
DURATION_GRANULARITY = 32

REFERENCES = Path(__file__).with_name("references.json")


def digest(outputs: dict) -> str:
    """sha256 of the canonical JSON form (floats in repr precision)."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def invariants(outputs: dict) -> list[str]:
    """Physical invariants every seed must satisfy."""
    problems = []
    for key, ar in outputs["ar"].items():
        if not (isinstance(ar, float) and math.isfinite(ar)
                and 0.0 <= ar <= 1.0):
            problems.append(f"AR {key}={ar!r} outside [0, 1]")
    for key, duration in outputs.get("po_duration", {}).items():
        raw = outputs["raw_mixer"][key]
        if duration % DURATION_GRANULARITY:
            problems.append(
                f"PO duration {key}={duration} not a multiple of "
                f"{DURATION_GRANULARITY} dt"
            )
        if not 0 < duration <= raw:
            problems.append(
                f"PO duration {key}={duration} outside (0, raw {raw}]"
            )
    return problems


def against_reference(outputs: dict, reference: dict) -> list[str]:
    """Differences beyond tolerance between ``outputs`` and a reference."""
    problems = []
    if set(outputs["ar"]) != set(reference["ar"]):
        problems.append("AR keys differ from the reference")
    for key in sorted(set(outputs["ar"]) & set(reference["ar"])):
        got, want = outputs["ar"][key], reference["ar"][key]
        if abs(got - want) > AR_TOLERANCE:
            problems.append(
                f"AR {key}={got:.4f} vs reference {want:.4f} "
                f"(tolerance {AR_TOLERANCE})"
            )
    for section in ("po_duration", "raw_mixer"):
        if outputs.get(section, {}) != reference.get(section, {}):
            problems.append(
                f"{section} {outputs.get(section)} vs reference "
                f"{reference.get(section)}"
            )
    return problems


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(workload: str, seed: int, outputs: dict,
            references: dict | None = None) -> dict:
    """The full check of one unit's outputs.

    ``reference`` is ``"match"``, ``"mismatch"`` or ``"none"`` (seed not
    recorded); ``digest_match`` is ``None`` without a reference.
    """
    if references is None:
        references = load_references()
    problems = invariants(outputs)
    reference = references.get(workload, {}).get(str(seed))
    out_digest = digest(outputs)
    status, digest_match = "none", None
    if reference is not None:
        mismatches = against_reference(outputs, reference["outputs"])
        problems += mismatches
        status = "mismatch" if mismatches else "match"
        digest_match = reference["digest"] == out_digest
    return {
        "ok": not problems,
        "problems": problems,
        "reference": status,
        "digest": out_digest,
        "digest_match": digest_match,
    }
