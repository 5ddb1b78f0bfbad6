"""Every CLI preset against its recorded outputs in ``tests/reference``.

Float columns and numeric summary fields must match to 1e-12 absolute;
labels, counts and growth intervals must match exactly. A label that
flips is reported with its margins to the thresholds D -+ F, since one
within 1e-12 of a threshold may flip between BLAS builds.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

REFERENCE = Path(__file__).resolve().parent / "reference"
_spec = importlib.util.spec_from_file_location("generate", REFERENCE / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

ATOL = 1e-12
# summary fields compared exactly although they hold floats
EXACT_FIELDS = {"growth_intervals"}


def assert_summary_matches(got, want, where="summary", exact=False):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            exact_key = exact or key in EXACT_FIELDS
            assert_summary_matches(got[key], want[key], f"{where}.{key}", exact_key)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_summary_matches(g, w, f"{where}[{i}]", exact)
    elif isinstance(want, float) and not exact:
        assert isinstance(got, float) and abs(got - want) <= ATOL, f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def label_flips(got, want) -> str:
    """The cells whose label differs, with B - (D - F) and B - (D + F)."""
    bad = np.flatnonzero(got["surface/class"] != want["surface/class"])
    d, f, b = (want[f"surface/{c}"][bad] for c in ("D_t", "F", "B"))
    return "; ".join(
        f"cell {i}: {w} -> {g}, margins {lo:.3e}, {hi:.3e}"
        for i, w, g, lo, hi in zip(
            bad, want["surface/class"][bad], got["surface/class"][bad], b - (d - f), b - (d + f)
        )
    )


@pytest.mark.parametrize("preset", generate.PRESETS)
def test_preset_matches_reference(preset, tmp_path):
    got = generate.run_preset(preset, tmp_path)
    with np.load(REFERENCE / f"{preset}.npz") as ref:
        want = dict(ref)
    assert sorted(got) == sorted(want)
    summaries = (json.loads(str(outputs.pop("summary"))) for outputs in (got, want))
    assert_summary_matches(*summaries)
    for key, expected in want.items():
        actual = got[key]
        assert actual.shape == expected.shape, key
        if expected.dtype.kind == "f":
            err = float(np.max(np.abs(actual - expected), initial=0.0))
            assert err <= ATOL, f"{key} is {err:.3e} off the reference"
        elif key == "surface/class":
            assert np.array_equal(actual, expected), label_flips(got, want)
        else:
            assert np.array_equal(actual, expected), key
