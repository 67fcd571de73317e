"""Channels built directly from a beamspace matrix, for planted-support
studies."""

import numpy as np

from irsbeam.arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from irsbeam.channel import CascadeChannel


def channel_from_lambda(lam: np.ndarray, cfg: ArrayConfig) -> CascadeChannel:
    """The cascade channel whose beamspace image is `lam`: factors
    u = barD lam and b = D, so h = barD lam D^H."""
    u = cascade_dictionary(cfg) @ lam
    b = dft_dictionary(cfg.n_t)
    i, j = np.unravel_index(int(np.argmax(np.abs(lam))), lam.shape)
    return CascadeChannel(
        h=u @ b.conj().T, lam=lam, strongest=(int(i), int(j)), u=u, b=b, cfg=cfg
    )
