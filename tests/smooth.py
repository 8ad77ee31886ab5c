"""Deterministic smooth test fields: a sum of Fourier modes per component."""

import numpy as np

from biquat.grid import BQField


def smooth_field(grid, seed=0, cls=BQField):
    """A field of type cls whose four components are each three Fourier
    modes, wavenumbers in [-2, 2]^3 and complex normal amplitudes, drawn
    from default_rng(seed) in a fixed order."""
    rng = np.random.default_rng(seed)
    x1, x2, x3 = grid.mesh()
    data = np.zeros((4, *grid.shape), dtype=complex)
    for comp in range(4):
        for _ in range(3):
            kv = rng.integers(-2, 3, size=3)
            c = complex(rng.normal(), rng.normal())
            data[comp] += c * np.exp(1j * (kv[0] * x1 + kv[1] * x2 + kv[2] * x3))
    return cls(grid, data)
