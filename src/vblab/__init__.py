"""vblab: variational posteriors in closed form, by coordinate ascent, and under test.

Submodules
----------
divergences      Renyi/KL/Hellinger/TV/chi-squared calculators and the chain check.
sequence_model   Gaussian sequence model with a sieve prior: exact mean-field
                 and empirical-Bayes posteriors, risks, sampling.
truncated_series Polynomially-decaying Gaussian prior with the explicit
                 coordinate-truncation variational posterior and its exact risk.
changepoint      Piecewise-constant signals: product posterior and grid Markov-chain
                 posterior via forward-backward.
expfamily        Exponential-family densities on [0, 1] in a trigonometric basis,
                 with a Gaussian mean-field ELBO optimizer.
mixture          Location-scale Gaussian mixtures via conjugate coordinate ascent.
harness          Replicated experiments, rate-exponent fits, CSV/JSON emission.
"""

from . import (  # noqa: F401
    changepoint,
    divergences,
    expfamily,
    harness,
    mixture,
    sequence_model,
    truncated_series,
)

__version__ = "0.1.0"
