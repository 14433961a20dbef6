"""Quantum linear response excited states with shot-noise simulation."""

import numpy as np

__version__ = "0.1.0"

EV_PER_HARTREE = 27.211386245988


def jsonable(value):
    """Strict JSON data from nested dicts, sequences, ndarrays and scalars.

    ndarrays and tuples become lists, numpy scalars Python ones, and
    non-finite floats None.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value
