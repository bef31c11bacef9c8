"""Composite Gauss-Legendre quadrature: fixed rules and one panel-doubling integrator.

The numerical integrals in vblab (exponential-family normalizers and
divergences, change-point tail moments, the sieve KL gap) go through
these helpers; the sieve's rescaled-Cauchy evidence and tilt moments
are closed forms instead.  The integrand is evaluated on vectorized
node arrays.
fixed_rule serves the paths that need one smooth, fixed set of nodes;
integrate doubles the panel count until two successive refinements
agree to the requested relative tolerance.  A caller whose integrand is
far from unit scale divides it by a reference value and adds that
value's log back to the log of the result.
"""

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError


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


# integrate doubles its order-16 panels at most this many times
_MAX_DOUBLINGS = 14


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
) -> float:
    """Integrate a vectorized integrand over [a, b] to the given tolerance.

    Raises NumericError if panel doubling does not converge.
    """
    prev = None
    panels = 1
    for _ in range(_MAX_DOUBLINGS + 1):
        nodes, weights = panel_nodes(a, b, panels)
        val = float(np.dot(weights, f(nodes)))
        if prev is not None and abs(val - prev) <= rel_tol * abs(val) + abs_tol:
            return val
        prev = val
        panels *= 2
    raise NumericError(
        f"quadrature on [{a}, {b}] did not reach rel_tol={rel_tol} "
        f"within {_MAX_DOUBLINGS} panel doublings"
    )
