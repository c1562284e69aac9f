"""The correctness gate: a pass's records against the table pinned on the
commit that introduced the benchmark (``expected.json``, written by ``pin.py``).

Strings, booleans, integers and missing values must match exactly, including
the expected ``refuted`` shells and failing escape checks of the model zoo.
Floats must agree to RTOL relative or ATOL absolute.  The seed's jitter moves
values by at most about 3e-10 relative, and threaded BLAS reductions the
difference of two traces (thm2) by about 2e-9.
"""
from __future__ import annotations

import json
import math
import os

RTOL = 1e-5
ATOL = 1e-10

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def matches(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isinf(want):
            return str(float(got)) == str(want)
        return abs(got - want) <= ATOL + RTOL * abs(want)
    return type(got) is type(want) and got == want


def normalise(value):
    """Records as JSON would give them back (tuples become lists)."""
    return json.loads(json.dumps(value))


def failed_keys(records: dict, expected: dict) -> list[str]:
    """Keys of the pinned table that are missing or differ, plus unknown keys."""
    bad = [k for k, want in expected.items()
           if k not in records or not matches(normalise(records[k]), want)]
    bad += [k for k in records if k not in expected]
    return bad
