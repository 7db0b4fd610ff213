"""Binary checkpoint format for spectral fields.

Layout (little-endian):

    bytes 0-3    magic "FBNS"
    uint16       format version (currently 1)
    uint16       dim
    uint32       n points per axis
    float64      period_l
    uint16       component count
    payload      per component, row-major over the lattice, interleaved
                 (re, im) float64 pairs of the full spectrum, which
                 must be a real field's; readers keep the stored half

Writes go through a temporary file in the target directory followed by an
atomic rename, so readers never observe a half-written checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .spectral import Grid, SpectralField

MAGIC = b"FBNS"
VERSION = 1
_HEADER = struct.Struct("<4sHHIdH")


class CheckpointError(Exception):
    """Malformed or incompatible checkpoint file."""


def _atomic_write(path: Path, data: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str):
    _atomic_write(Path(path), text.encode("utf-8"))


def json_text(payload) -> str:
    """payload as strict JSON, indented with sorted keys; each non-finite
    float in its dicts, lists and tuples is written as the string "inf",
    "-inf" or "nan"."""
    def finite(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return repr(float(obj))  # numpy's repr would name its type
        if isinstance(obj, dict):
            return {key: finite(val) for key, val in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [finite(val) for val in obj]
        return obj
    return json.dumps(finite(payload), indent=2, sort_keys=True, allow_nan=False)


def atomic_write_json(path, payload: dict):
    atomic_write_text(path, json_text(payload) + "\n")


def field_to_bytes(field: SpectralField) -> bytes:
    header = _HEADER.pack(MAGIC, VERSION, field.grid.dim, field.grid.n,
                          field.grid.period_l, field.ncomp)
    payload = field.grid.full_spectrum(field.coeffs).astype("<c16").tobytes()
    return header + payload


def write_field(path, field: SpectralField):
    _atomic_write(Path(path), field_to_bytes(field))


def field_from_bytes(data: bytes) -> SpectralField:
    if len(data) < _HEADER.size:
        raise CheckpointError(f"file too short for header ({len(data)} bytes)")
    magic, version, dim, n, period_l, ncomp = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported format version {version}, expected {VERSION}")
    try:
        grid = Grid(dim, n, period_l)
    except ValueError as exc:
        raise CheckpointError(f"invalid grid header: {exc}") from exc
    if ncomp < 1:
        raise CheckpointError("no field components")
    expected = _HEADER.size + ncomp * n ** dim * 16
    if len(data) != expected:
        raise CheckpointError(
            f"truncated coefficient block: expected {expected} bytes, found {len(data)}"
        )
    flat = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    full = flat.reshape((ncomp,) + grid.shape).astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(full - np.conj(grid.reflect(full))))
        scale = np.max(np.abs(full))
    if not defect <= 1e-10 * scale:  # c_(-k) = conj(c_k) to rounding; rejects nan
        raise CheckpointError(f"payload is not the spectrum of a real field "
                              f"(Hermitian defect {defect:.3e}, scale {scale:.3e})")
    return SpectralField(grid, grid.half_spectrum(full).copy())


def read_field(path) -> SpectralField:
    with open(path, "rb") as handle:
        return field_from_bytes(handle.read())


def roundtrip_report(path) -> dict:
    """Read a checkpoint, serialize it again, and report whether the bytes
    survive unchanged along with the parsed header."""
    with open(path, "rb") as handle:
        original = handle.read()
    field = field_from_bytes(original)
    rewritten = field_to_bytes(field)
    return {
        "path": str(path),
        "bytes": len(original),
        "dim": field.grid.dim,
        "n": field.grid.n,
        "period_l": field.grid.period_l,
        "components": field.ncomp,
        "version": VERSION,
        "roundtrip_identical": rewritten == original,
    }
