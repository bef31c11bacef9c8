"""Composite Gauss-Legendre rules, each with a fixed set of nodes.

The numerical integrals in vblab (exponential-family normalizers and
divergences, change-point tail moments, the sieve KL gap) are sums over
these rules; the sieve's rescaled-Cauchy evidence and tilt moments and
the change-point Gaussian tilts are closed forms instead.  Each caller
sizes its rule for its integrand: the exponential family by a stated
Bernstein-ellipse error bound, the others by the integrand's scale.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(a: float, b: float, panels: int, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=None)
def fixed_rule(a: float, b: float, panels: int, order: int = 16) -> tuple[np.ndarray, ...]:
    """Read-only nodes, weights and log weights of panel_nodes, built once per argument set."""
    nodes, weights = panel_nodes(a, b, panels, order)
    rule = (nodes, weights, np.log(weights))
    for arr in rule:
        arr.flags.writeable = False
    return rule
