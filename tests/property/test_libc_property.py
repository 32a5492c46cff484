"""Property tests: device libc number parsing vs. Python's parsers.

Each example round-trips a generated numeric string through the on-device
``atoi``/``atof`` (full compile-to-interpreter path, with a session-cached
loader so the per-example cost is one small kernel launch).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import Program, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE

_prog = Program("parse_harness")


@_prog.main
def main(argc: i64, argv: ptr_ptr) -> i64:
    mode = atoi(argv[1])  # noqa: F821
    if mode == 1:
        return atoi(argv[2])  # noqa: F821
    # scale atof into an integer with 6 digits of precision preserved
    v = atof(argv[2])  # noqa: F821
    return int(v * 1000000.0)


@pytest.fixture(scope="module")
def loader():
    return Loader(_prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


@settings(max_examples=30, deadline=None)
@given(st.integers(-(10**12), 10**12))
def test_atoi_matches_int(loader, value):
    res = loader.run(LaunchSpec([["1", str(value)]], collect_timing=False))
    assert res.exit_code == value


@settings(max_examples=30, deadline=None)
@given(
    st.floats(
        min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
    )
)
def test_atof_matches_float_within_precision(loader, value):
    text = f"{value:.6f}"
    res = loader.run(LaunchSpec([["2", text]], collect_timing=False))
    assert res.exit_code == pytest.approx(int(float(text) * 1e6), abs=2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 999), st.integers(0, 99))
def test_atof_scientific_notation(loader, mant, exp10):
    # keep the scaled result within i64 and precision bounds
    text = f"{mant}e-{exp10 % 4}"
    res = loader.run(LaunchSpec([["2", text]], collect_timing=False))
    assert res.exit_code == pytest.approx(int(float(text) * 1e6), abs=2)


@settings(max_examples=20, deadline=None)
@given(st.text(alphabet="0123456789", min_size=1, max_size=9))
def test_atoi_digit_strings(loader, digits):
    res = loader.run(LaunchSpec([["1", digits]], collect_timing=False))
    assert res.exit_code == int(digits)
