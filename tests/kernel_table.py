"""The per-boundary-index kernel table, for tests that check one Poi_j at a time."""

import numpy as np


def kernel_table(batch, x, deriv_order=0, modes=None):
    """``D^d Poi_j`` at every lambda on ``modes`` (default: all) for every
    boundary index j, shape (m,) + lam.shape + (len(modes), len(x)):
    :meth:`KernelBatch.eval` with unit data e_j."""
    m = len(batch.coeff)
    return np.stack([batch.eval(x, np.eye(m)[j].reshape((m,) + (1,) * len(batch.shape)),
                                deriv_order, modes)
                     for j in range(m)])
