"""Deterministic text rendering for CLI output and determinism checks."""

from __future__ import annotations

import json
import math

from .sampling import SampleSummary


def float_text(x: float) -> str:
    """17-significant-digit rendering; NaN and infinities as JSON-ish literals."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def json_object(pairs: list[tuple[str, object]]) -> str:
    """One-line JSON object with the given key order.

    Values may be int, float (rendered via float_text), str, or None.
    """
    chunks = []
    for key, value in pairs:
        if value is None:
            text = "null"
        elif isinstance(value, int):
            text = str(value)
        elif isinstance(value, float):
            text = float_text(value)
        else:
            text = json.dumps(value)
        chunks.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(chunks) + "}"


def sample_json(summary: SampleSummary) -> str:
    """Fixed-schema JSON line for one Monte Carlo summary."""
    return json_object(
        [
            ("n", summary.n),
            ("trials", summary.trials),
            ("seed", summary.seed),
            ("mean_commutations", summary.mean_commutations),
            ("se_commutations", summary.se_commutations),
            ("mean_noncommuting", summary.mean_noncommuting),
            ("se_noncommuting", summary.se_noncommuting),
            ("mean_braids", summary.mean_braids),
            ("se_braids", summary.se_braids),
            ("word_length", summary.word_length),
        ]
    )
