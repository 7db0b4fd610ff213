import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbns.checkpoint import (MAGIC, VERSION, CheckpointError, _HEADER,
                             atomic_write_json, field_from_bytes,
                             field_to_bytes, read_field, roundtrip_report,
                             write_field)
from fbns.solver3d import IterationDiagnostics
from fbns.spectral import (Grid, forward_transform, random_divfree_field,
                           random_scalar_field)


def complex_fft_payload(samples, grid):
    # the full spectrum as an fftn-based writer stores it
    header = _HEADER.pack(MAGIC, VERSION, grid.dim, grid.n, grid.period_l,
                          samples.shape[0])
    axes = tuple(range(1, grid.dim + 1))
    full = np.fft.fftn(samples, axes=axes) / grid.n ** grid.dim
    return header + full.astype("<c16").tobytes()


def test_roundtrip_scalar_and_vector(tmp_path):
    grid = Grid(dim=3, n=16, period_l=4.0)
    for field in (random_scalar_field(grid, seed=5),
                  random_divfree_field(grid, seed=6)):
        path = tmp_path / "field.fbns"
        write_field(path, field)
        back = read_field(path)
        assert back.grid == field.grid
        assert back.ncomp == field.ncomp
        assert np.array_equal(back.coeffs, field.coeffs)


def test_bytes_roundtrip_is_identity():
    grid = Grid(dim=2, n=8, period_l=1.0)
    grid3 = Grid(dim=3, n=8, period_l=2.0)
    samples = np.random.default_rng(0).standard_normal((3,) + grid3.shape)
    for field in (random_scalar_field(grid, seed=1),
                  forward_transform(samples, grid3)):
        data = field_to_bytes(field)
        assert field_to_bytes(field_from_bytes(data)) == data


def test_payload_is_the_full_complex_spectrum():
    # files hold the full spectrum, as written by a complex-transform
    # writer; reading one keeps the stored half of the same field
    for grid, ncomp in ((Grid(dim=3, n=8, period_l=2.0), 3),
                        (Grid(dim=2, n=16, period_l=1.0), 1)):
        samples = np.random.default_rng(1).standard_normal((ncomp,) + grid.shape)
        field = forward_transform(samples, grid)
        legacy = complex_fft_payload(samples, grid)
        written = np.frombuffer(field_to_bytes(field), "<c16", offset=_HEADER.size)
        assert len(written) == (len(legacy) - _HEADER.size) // 16
        assert np.max(np.abs(written - np.frombuffer(legacy, "<c16",
                                                     offset=_HEADER.size))) < 1e-15
        back = field_from_bytes(legacy)
        assert back.grid == grid
        assert np.max(np.abs(back.coeffs - field.coeffs)) < 1e-15


def test_rejects_payload_of_non_real_field():
    grid = Grid(dim=2, n=8, period_l=1.0)
    data = bytearray(complex_fft_payload(np.ones((1,) + grid.shape), grid))
    # an imaginary mean is no real field's, nor is a lone mode off the
    # stored half (index (1, 6), conjugate partner (-1, -6) = (7, 2))
    for offset in (0, 16 * (1 * 8 + 6)):
        bad = bytearray(data)
        bad[_HEADER.size + offset + 8:_HEADER.size + offset + 16] = struct.pack("<d", 0.5)
        with pytest.raises(CheckpointError, match="not the spectrum of a real field"):
            field_from_bytes(bytes(bad))
    nan = bytearray(data)
    nan[_HEADER.size:_HEADER.size + 8] = struct.pack("<d", float("nan"))
    with pytest.raises(CheckpointError, match="real field"):
        field_from_bytes(bytes(nan))


def test_rejects_bad_magic():
    grid = Grid(dim=2, n=8, period_l=1.0)
    data = bytearray(field_to_bytes(random_scalar_field(grid, seed=2)))
    data[:4] = b"NOPE"
    with pytest.raises(CheckpointError, match="magic"):
        field_from_bytes(bytes(data))


def test_rejects_unknown_version():
    grid = Grid(dim=2, n=8, period_l=1.0)
    data = bytearray(field_to_bytes(random_scalar_field(grid, seed=3)))
    data[4] = 99
    with pytest.raises(CheckpointError, match="version"):
        field_from_bytes(bytes(data))


def test_rejects_truncated_payload():
    grid = Grid(dim=2, n=8, period_l=1.0)
    data = field_to_bytes(random_scalar_field(grid, seed=4))
    with pytest.raises(CheckpointError, match="truncated coefficient block"):
        field_from_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="too short"):
        field_from_bytes(data[:10])


def test_rejects_invalid_grid_header():
    grid = Grid(dim=2, n=8, period_l=1.0)
    data = bytearray(field_to_bytes(random_scalar_field(grid, seed=5)))
    data[6] = 7  # dim byte
    with pytest.raises(CheckpointError, match="invalid grid header"):
        field_from_bytes(bytes(data))


def test_write_is_atomic_no_stray_tmp(tmp_path):
    grid = Grid(dim=2, n=8, period_l=1.0)
    path = tmp_path / "nested" / "field.fbns"
    write_field(path, random_scalar_field(grid, seed=6))
    assert path.exists()
    assert [p.name for p in path.parent.iterdir()] == ["field.fbns"]


def test_atomic_json_is_deterministic(tmp_path):
    payload = {"b": 2, "a": [1.5, None], "nested": {"z": True, "y": "s"}}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    atomic_write_json(p1, payload)
    atomic_write_json(p2, dict(reversed(list(payload.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def strict_json(text: str):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_atomic_json_of_nan_defaults_is_strict(tmp_path):
    path = tmp_path / "diagnostics.json"
    atomic_write_json(path, IterationDiagnostics().as_dict())
    diag = strict_json(path.read_text())
    assert diag["residual_estimate"] == diag["linear_norm"] == "nan"
    assert diag["error_estimate"] is None  # absent, not non-finite


def test_atomic_json_names_numpy_non_finite_values(tmp_path):
    path = tmp_path / "values.json"
    values = (np.float64("nan"), np.float64("inf"), -np.float64("inf"), np.float64(0.5))
    atomic_write_json(path, {"values": values})
    assert strict_json(path.read_text()) == {"values": ["nan", "inf", "-inf", 0.5]}


def test_roundtrip_report_fields(tmp_path):
    grid = Grid(dim=3, n=8, period_l=2.0)
    path = tmp_path / "r.fbns"
    write_field(path, random_divfree_field(grid, seed=7))
    rep = roundtrip_report(path)
    assert rep["roundtrip_identical"] is True
    assert rep["dim"] == 3 and rep["n"] == 8 and rep["components"] == 3
    assert rep["period_l"] == 2.0 and rep["version"] == 1


# ---------------------------------------------------------------------------
# fuzzing: malformed input raises CheckpointError, never anything else, and
# never allocates the size a header claims

def _parse(data: bytes):
    tracemalloc.start()
    try:
        try:
            field_from_bytes(data)
        except CheckpointError:
            return False, tracemalloc.get_traced_memory()[1]
        return True, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_VALID = field_to_bytes(random_divfree_field(Grid(dim=3, n=8, period_l=2.0), seed=9))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_VALID) - 1))
def test_fuzz_truncated_file_rejected(cut):
    accepted, _ = _parse(_VALID[:cut])
    assert not accepted


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_VALID) - 1), st.binary(min_size=1, max_size=8))
def test_fuzz_garbled_bytes_raise_only_checkpoint_error(offset, junk):
    data = bytearray(_VALID)
    data[offset:offset + len(junk)] = junk
    _, peak = _parse(bytes(data[:len(_VALID)]))
    assert peak < 20 * len(_VALID)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1),
       st.floats(allow_nan=True, allow_infinity=True),
       st.integers(0, 2**16 - 1), st.binary(max_size=4096))
def test_fuzz_oversized_headers_rejected_without_allocation(dim, n, period_l,
                                                            ncomp, payload):
    header = _HEADER.pack(MAGIC, VERSION, dim, n, period_l, ncomp)
    accepted, peak = _parse(header + payload)
    assert peak < 1 << 20
    if accepted:
        assert ncomp * n ** dim * 16 == len(payload) <= 4096
