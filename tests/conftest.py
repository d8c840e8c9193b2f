"""Shared fixtures."""

import struct

import numpy as np
import pytest

from hallmhd import oracles


def write_v1_checkpoint(path, t, nu, mu, u, b):
    """A version 1 checkpoint of u and b, as the v1 writer laid it out: the
    header {magic, version 1, n, t, nu, mu}, then each field's full cube,
    the Hermitian fill (oracles.full_cube) of its half cube."""
    n = u.grid.n
    header = struct.pack("<4sIIddd", b"HMHD", 1, n, t, nu, mu)
    cubes = np.stack([oracles.full_cube(oracles.half_cube(f)) for f in (u, b)])
    path.write_bytes(header + cubes.astype("<c16").tobytes())


@pytest.fixture
def v1_checkpoint():
    """write_v1_checkpoint(path, t, nu, mu, u, b)."""
    return write_v1_checkpoint
