"""Composite Gauss-Legendre quadrature with panel doubling.

All density normalizers and divergence integrals in vblab go through
these helpers.  The integrand is evaluated on vectorized node arrays; the
panel count doubles until two successive refinements agree to the
requested relative tolerance.
"""

from functools import lru_cache
from typing import Callable

import numpy as np

from ._lse import _logsumexp
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


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
    max_doublings: int = 14,
    order: int = 16,
) -> float:
    """Integrate a vectorized integrand over [a, b] to the given tolerance.

    Raises NumericError if panel doubling does not converge.
    """
    prev = None
    panels = 1
    for _ in range(max_doublings + 1):
        nodes, weights = panel_nodes(a, b, panels, order)
        val = float(np.dot(weights, f(nodes)))
        if prev is not None and abs(val - prev) <= rel_tol * abs(val) + abs_tol:
            return val
        prev = val
        panels *= 2
    raise NumericError(
        f"quadrature on [{a}, {b}] did not reach rel_tol={rel_tol} "
        f"within {max_doublings} panel doublings"
    )


def integrate_log(
    log_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_doublings: int = 14,
    order: int = 16,
) -> float:
    """Return log of the integral of exp(log_f) over [a, b].

    The shift-by-maximum is re-applied at each refinement, so integrands
    whose scale is far from unity stay in range.  Convergence is measured
    on the log value.  Raises NumericError on non-convergence.
    """
    prev = None
    panels = 2
    for _ in range(max_doublings + 1):
        nodes, weights = panel_nodes(a, b, panels, order)
        log_terms = log_f(nodes) + np.log(weights)
        val = _logsumexp(log_terms)
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)):
            return val
        prev = val
        panels *= 2
    raise NumericError(
        f"log-quadrature on [{a}, {b}] did not converge within {max_doublings} doublings"
    )
