"""The scalar ray cast's key sets as the key/flag columns the accelerator takes."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.octomap.keys import OcTreeKey


def update_columns(
    free_keys: Iterable[OcTreeKey], occupied_keys: Iterable[OcTreeKey]
) -> Tuple[np.ndarray, np.ndarray]:
    """The accelerator's issue order: free voxels, then occupied, each in key order.

    Returns the ``(N, 3)`` ``uint16`` key columns and the ``(N,)`` occupied
    flags that ``OMUAccelerator.apply_update_batch`` takes.
    """
    free, occupied = sorted(free_keys), sorted(occupied_keys)
    keys = np.array([key.as_tuple() for key in free + occupied], dtype=np.uint16).reshape(-1, 3)
    return keys, np.arange(len(keys)) >= len(free)
