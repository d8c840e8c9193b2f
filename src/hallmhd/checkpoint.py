"""Binary checkpoint codec for solver state.

Layout: header {magic "HMHD", version u32, n u32, t f64, nu f64, mu f64},
then u then b as little-endian f64 interleaved (re, im) pairs in
component-major, k-row-major order, each the full (3, n, n, n) cube: the
Hermitian fill of the field's half cube kz >= 0, into which its box is
regridded, the only full cube built outside the test references.  Reading
refuses a half cube with content on an n/2 plane, which no field holds,
and regrids the others to their boxes, so the round trip is bit-exact.  A
checkpoint is written to a temporary file beside the target and renamed
over it, so a write that fails part-way leaves the previous checkpoint
intact.  A run resumed from a checkpoint is bit-identical to the straight
run under the same BLAS kernel and the same fields.SLAB_BYTES (see bit
determinism in the fields docstring).
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .fields import DimensionError, Grid, SpectralField, _regrid

MAGIC = b"HMHD"
VERSION = 1
_HEADER = struct.Struct("<4sIIddd")


class CheckpointError(ValueError):
    """Raised on checkpoint parse failures."""


def _full_cube(half: np.ndarray) -> np.ndarray:
    """The full coefficient cube (..., n, n, n) of real fields from their
    half cube (..., n, n, n//2 + 1), the upper kz half being the conjugates
    of the Hermitian partners: index i pairs with (n - i) % n on every axis."""
    n, nh = half.shape[-3], half.shape[-1]
    out = np.empty(half.shape[:-1] + (n,), dtype=half.dtype)
    out[..., :nh] = half
    src = half[..., nh - 2 : 0 : -1]  # kz index n - iz for iz = n/2+1 .. n-1
    up = out[..., nh:]
    np.conjugate(src[..., 0, 0, :], out=up[..., 0, 0, :])
    np.conjugate(src[..., 0, :0:-1, :], out=up[..., 0, 1:, :])
    np.conjugate(src[..., :0:-1, 0, :], out=up[..., 1:, 0, :])
    np.conjugate(src[..., :0:-1, :0:-1, :], out=up[..., 1:, 1:, :])
    return out


def write_checkpoint(
    path, t: float, nu: float, mu: float, u: SpectralField, b: SpectralField
) -> None:
    n = u.grid.n
    if b.grid.n != n or u.ncomp != 3 or b.ncomp != 3:
        raise CheckpointError("checkpoint needs two 3-component fields on one grid")
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, n, float(t), float(nu), float(mu)))
            for f in (u, b):
                half = _regrid(np.asarray(f.coeffs, dtype="<c16"), (n, n, n // 2 + 1))
                fh.write(_full_cube(half).data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_checkpoint(path) -> tuple[float, float, float, SpectralField, SpectralField]:
    """Returns (t, nu, mu, u, b), u and b the fields of the half cubes
    kz >= 0 of the stored cubes.  The file size is checked against the
    header before the payload is read, one field at a time, into one cube
    buffer that each field's box is copied from.  A half cube with content
    on an n/2 plane, which no field holds, raises CheckpointError naming
    the field and the plane."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise CheckpointError(f"checkpoint parse: file too short ({size} bytes)")
        magic, version, n, t, nu, mu = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise CheckpointError(f"checkpoint parse: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"checkpoint parse: unsupported version {version}")
        try:
            grid = Grid(int(n))
        except DimensionError as exc:
            msg = f"checkpoint parse: bad header field n: {exc}"
            raise CheckpointError(msg) from exc
        expected = 2 * 3 * n**3 * 16
        if size - _HEADER.size != expected:
            raise CheckpointError(
                f"checkpoint parse: expected {expected} payload bytes, "
                f"got {size - _HEADER.size}"
            )
        cube = np.empty((3, n, n, n), dtype="<c16")
        fields = []
        for name in "ub":
            got = fh.readinto(cube)
            if got != cube.nbytes:
                msg = f"checkpoint parse: read {got} of a field's {cube.nbytes} bytes"
                raise CheckpointError(msg)
            h = n // 2
            half = cube[..., : h + 1]
            for axis, plane in zip("xyz", (half[:, h], half[:, :, h], half[..., h])):
                if plane.any():
                    raise CheckpointError(
                        f"checkpoint parse: field {name}: content on the k{axis} = "
                        f"n/2 = {h} plane, which a field does not store"
                    )
            fields.append(SpectralField(grid, half))
    return float(t), float(nu), float(mu), *fields
