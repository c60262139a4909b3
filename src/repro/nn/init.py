"""Weight initialisation schemes for the NN substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros", "normal"]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Glorot uniform initialisation: U(-a, a) with a = sqrt(6/(fan_in+fan_out))."""
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros float64 initialisation."""
    return np.zeros(shape, dtype=np.float64)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Gaussian initialisation with mean 0 and the given std."""
    return rng.normal(0.0, std, size=shape)
