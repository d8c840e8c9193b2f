"""Binary checkpoint codec for solver state.

Layout: header {magic "HMHD", version u32, n u32, t f64, nu f64, mu f64},
then u then b as little-endian f64 interleaved (re, im) pairs in
component-major, k-row-major order.  Bit-exact round trip.  A checkpoint is
written to a temporary file beside the target and renamed over it, so a
write that fails part-way leaves the previous checkpoint intact.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct

import numpy as np

from .fields import DimensionError, Grid, SpectralField

MAGIC = b"HMHD"
VERSION = 1
_HEADER = struct.Struct("<4sIIddd")


class CheckpointError(ValueError):
    """Raised on checkpoint parse failures."""


def write_checkpoint(
    path, t: float, nu: float, mu: float, u: SpectralField, b: SpectralField
) -> None:
    n = u.grid.n
    if b.grid.n != n or u.ncomp != 3 or b.ncomp != 3:
        raise CheckpointError("checkpoint needs two 3-component fields on one grid")
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, n, float(t), float(nu), float(mu)))
            fh.write(np.ascontiguousarray(u.coeffs, dtype="<c16").tobytes())
            fh.write(np.ascontiguousarray(b.coeffs, dtype="<c16").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_checkpoint(path) -> tuple[float, float, float, SpectralField, SpectralField]:
    """Returns (t, nu, mu, u, b)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"checkpoint parse: file too short ({len(raw)} bytes)")
    magic, version, n, t, nu, mu = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError(f"checkpoint parse: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"checkpoint parse: unsupported version {version}")
    try:
        grid = Grid(int(n))
    except DimensionError as exc:
        raise CheckpointError(f"checkpoint parse: bad header field n: {exc}") from exc
    body = raw[_HEADER.size :]
    expected = 2 * 3 * n**3 * 16
    if len(body) != expected:
        raise CheckpointError(
            f"checkpoint parse: expected {expected} payload bytes, got {len(body)}"
        )
    data = np.frombuffer(body, dtype="<c16").reshape(2, 3, n, n, n)
    u = SpectralField(grid, data[0].astype(np.complex128))
    b = SpectralField(grid, data[1].astype(np.complex128))
    return float(t), float(nu), float(mu), u, b
