"""The per-boundary-index kernel table, for tests that check one Poi_j at a time."""

import numpy as np


def kernel_table(batch, x, deriv_order=0):
    """``D^d Poi_j`` on every row of the batch for every boundary index j,
    shape (m,) + lam.shape + (M, len(x)): :meth:`KernelBatch.eval` with unit
    data e_j."""
    m = len(batch.coeff)
    return np.stack([batch.eval(x, np.eye(m)[j].reshape((m,) + (1,) * len(batch.shape)),
                                deriv_order)
                     for j in range(m)])
