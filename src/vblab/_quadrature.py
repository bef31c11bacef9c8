"""Composite order-16 Gauss-Legendre rules, each with a fixed set of nodes.

The change-point tail moments and the sieve KL gap are sums over these
rules, each sized by its integrand's scale.  The exponential-family
normalizers and divergences take the periodic trapezoidal rule instead
(vblab.expfamily), and the sieve's rescaled-Cauchy evidence and tilt
moments and the change-point Gaussian tilts are closed forms.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(16)  # at first use: numpy.polynomial is slow to import


def panel_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = _gl_nodes()
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=None)
def fixed_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, ...]:
    """Read-only nodes and weights of panel_nodes, built once per argument set."""
    rule = panel_nodes(a, b, panels)
    for arr in rule:
        arr.flags.writeable = False
    return rule
