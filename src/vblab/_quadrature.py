"""Composite order-16 Gauss-Legendre rules, each with a fixed set of nodes.

The change-point tilt moments, where their closed form loses digits, are
sums over these rules.  The exponential-family normalizers and
divergences take the periodic trapezoidal rule instead
(vblab.expfamily), and the sieve's evidence and tilt moments and the
change-point Gaussian tilts are closed forms.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def fixed_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, ...]:
    """Read-only nodes and weights of a composite Gauss-Legendre rule on [a, b], built once per argument set."""
    x, w = np.polynomial.legendre.leggauss(16)  # at first use: numpy.polynomial is slow to import
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    rule = (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()
    for arr in rule:
        arr.flags.writeable = False
    return rule
