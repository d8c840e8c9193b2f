"""Binary checkpoint codec for solver state.

Layout (version 2): a fixed prefix {magic "HMHD", version u32 = 2, header
byte length u32, CRC32 of the header u32}, little-endian, then the header,
one UTF-8 JSON object, then the payload: the coeffs box of u, then that of
b, as stored (fields docstring), complex128 little-endian of shape
(3, 2C + 1, 2C + 1, C + 1) for each field's box cut C.  The header holds
n, dealias_cut, t, nu, mu, u_cut and b_cut (the two box cuts) and crc32,
the CRC32 of the payload.  Floats are written by their repr, so they read
back exactly.  A reader ignores keys it does not know, so a writer can add
keys without another version: write_checkpoint writes its keyword
arguments as further header keys, and read_with_header returns the whole
header.  The run driver (hallmhd.run) adds step_count, diss_integral, dt,
energy0 (the total energy at step 0) and config (the validated RunConfig,
its init spec resolved by config.check_init_params); a file written
without further keys is the same, byte for byte.  Version 2 is the only
version: a file of any other, the full-cube files of version 1 included,
raises CheckpointError "unsupported version N".

The writer writes each field's own buffer, and the reader reads each box
into the one array its field keeps, so on a little-endian host neither
copies a box, and the fields come back bit-exactly on Grid(n,
dealias_cut).  A bad header (a missing or bad key, a box cut outside
[dealias_cut, n/2 - 1], a checksum), a payload size other than the
header's boxes and a payload checksum mismatch raise CheckpointError
naming them.  A checkpoint is written to a temporary file
beside the target, synced to the disk, renamed over the target, and the
directory synced, so that a write that fails part-way, or a system crash,
leaves the previous checkpoint or the new one intact.  A run resumed from
a checkpoint is bit-identical to the straight run under the same BLAS
kernel and the same fields.SLAB_BYTES (see bit determinism in the fields
docstring).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib

import numpy as np

from .fields import DimensionError, Grid, SpectralField, _box_shape, _cut_of

MAGIC = b"HMHD"
VERSION = 2
_PREFIX = struct.Struct("<4sIII")  # magic, version, header byte length, header CRC32
_INT_KEYS = ("n", "dealias_cut", "u_cut", "b_cut", "crc32")
_FLOAT_KEYS = ("t", "nu", "mu")


class CheckpointError(ValueError):
    """Raised on checkpoint parse failures."""


def write_checkpoint(
    path, t: float, nu: float, mu: float, u: SpectralField, b: SpectralField, **extra
) -> None:
    """Write u and b at time t.  The JSON values of `extra` are further
    header keys, written before the codec's own, which they cannot
    replace."""
    grid = u.grid
    if b.grid != grid or u.ncomp != 3 or b.ncomp != 3:
        raise CheckpointError("checkpoint needs two 3-component fields on one grid")
    boxes = [np.ascontiguousarray(f.coeffs, dtype="<c16") for f in (u, b)]
    crc = 0
    for box in boxes:
        cut = _cut_of(box)
        if box.shape[1:] != _box_shape(cut) or not grid.dealias_cut <= cut < grid.n // 2:
            raise CheckpointError(f"checkpoint needs fields on their boxes, got {box.shape}")
        crc = zlib.crc32(box, crc)
    header = json.dumps({
        **extra, "n": grid.n, "dealias_cut": grid.dealias_cut,
        "t": float(t), "nu": float(nu), "mu": float(mu),
        "u_cut": _cut_of(boxes[0]), "b_cut": _cut_of(boxes[1]), "crc32": crc,
    }).encode()
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_PREFIX.pack(MAGIC, VERSION, len(header), zlib.crc32(header)) + header)
            for box in boxes:
                fh.write(box)
            # the data reaches the disk before the rename that publishes it
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    fd = os.open(head or ".", os.O_RDONLY)
    try:
        os.fsync(fd)  # and the rename itself
    finally:
        os.close(fd)


def read_checkpoint(path) -> tuple[float, float, float, SpectralField, SpectralField]:
    """Returns (t, nu, mu, u, b)."""
    header, u, b = read_with_header(path)
    return float(header["t"]), float(header["nu"]), float(header["mu"]), u, b


def read_with_header(path) -> tuple[dict, SpectralField, SpectralField]:
    """Returns (header, u, b), the header with every key the writer wrote.
    The header is checked, and the file size against it, before the
    payload is read; each box is read into the array its field keeps."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _PREFIX.size:
            raise CheckpointError(f"checkpoint parse: file too short ({size} bytes)")
        magic, version, length, header_crc = _PREFIX.unpack(fh.read(_PREFIX.size))
        if magic != MAGIC:
            raise CheckpointError(f"checkpoint parse: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"checkpoint parse: unsupported version {version}")
        payload_size = size - _PREFIX.size - length
        if payload_size < 0:
            msg = f"checkpoint parse: header of {length} bytes in a {size}-byte file"
            raise CheckpointError(msg)
        raw = fh.read(length)
        if zlib.crc32(raw) != header_crc:
            raise CheckpointError("checkpoint parse: header CRC32 mismatch, the header is corrupt")
        try:
            header = json.loads(raw)
        except ValueError as exc:
            raise CheckpointError(f"checkpoint parse: header is not JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint parse: header is not a JSON object")
        for key in _INT_KEYS + _FLOAT_KEYS:
            if key not in header:
                raise CheckpointError(f"checkpoint parse: header field {key} missing")
            value = header[key]
            kinds = int if key in _INT_KEYS else (int, float)
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise CheckpointError(f"checkpoint parse: bad header field {key}: {value!r}")
        for key, cut in (("n", None), ("dealias_cut", header["dealias_cut"])):
            try:
                grid = Grid(header["n"], cut)
            except DimensionError as exc:
                raise CheckpointError(f"checkpoint parse: bad header field {key}: {exc}") from exc
        shapes = []
        for name in "ub":
            cut = header[f"{name}_cut"]
            if not grid.dealias_cut <= cut < grid.n // 2:
                raise CheckpointError(
                    f"checkpoint parse: bad header field {name}_cut: {cut} outside "
                    f"[dealias_cut, n/2 - 1] = [{grid.dealias_cut}, {grid.n // 2 - 1}]"
                )
            shapes.append((3,) + _box_shape(cut))
        expected = sum(16 * math.prod(s) for s in shapes)
        if payload_size != expected:
            raise CheckpointError(
                f"checkpoint parse: expected {expected} payload bytes, got {payload_size}"
            )
        boxes, crc = [], 0
        for name, shape in zip("ub", shapes):
            box = np.empty(shape, dtype="<c16")
            got = fh.readinto(box)
            if got != box.nbytes:
                msg = f"checkpoint parse: read {got} of field {name}'s {box.nbytes} bytes"
                raise CheckpointError(msg)
            crc = zlib.crc32(box, crc)
            boxes.append(box)
    if crc != header["crc32"]:
        raise CheckpointError(
            f"checkpoint parse: payload CRC32 {crc:#010x} does not match the header's "
            f"{header['crc32']:#010x}, the payload is corrupt"
        )
    u, b = (SpectralField(grid, box) for box in boxes)
    return header, u, b
