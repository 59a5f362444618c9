"""The per-boundary-index kernel table, for tests that check one Poi_j at a time."""

import numpy as np


def kernel_table(batch, x, deriv_order=0, rows=None):
    """``D^d Poi_j`` on ``rows`` (default: all) for every boundary index j,
    shape (m, len(rows), len(x)): :meth:`KernelBatch.eval` with unit data e_j."""
    m = len(batch.coeff)
    return np.stack([batch.eval(x, np.eye(m)[:, [j]], deriv_order, rows)
                     for j in range(m)])
