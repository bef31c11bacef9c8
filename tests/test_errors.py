"""Malformed inputs raise InputError.

errors.data_array is checked through the entry points that also take a
single number, and the other checks through one call each.
"""

import numpy as np
import pytest

from vblab import changepoint, expfamily, mixture, sequence_model, truncated_series
from vblab.errors import InputError

SCALAR_ENTRY_POINTS = {
    "mixture_pdf": lambda x: mixture.mixture_pdf(mixture.MixtureModel(2, [0.2, 0.7], [0.4, 0.6], 0.1), x),
    "FourierDensity.log_pdf": lambda x: expfamily.FourierDensity([0.3, -0.2]).log_pdf(x),
    "basis_matrix": lambda x: expfamily.basis_matrix(x, 3),
    "Gaussian log_evidence_ratio": lambda x: sequence_model.GaussianCoordinates(1.0).log_evidence_ratio(x, 10.0),
    "Cauchy log_evidence_ratio": (
        lambda x: sequence_model.RescaledCauchyCoordinates(1.0, 10.0).log_evidence_ratio(x, 10.0)
    ),
}


@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS.values(), ids=SCALAR_ENTRY_POINTS.keys())
def test_ragged_input_is_an_input_error_and_a_scalar_is_one_point(entry):
    with pytest.raises(InputError, match="must be an array of numbers"):
        entry([[0.1], [0.2, 0.3]])
    one, many = entry(0.25), entry([0.25, 0.5])
    assert np.all(np.isfinite(one)) and np.all(np.isfinite(many))
    # a matrix product over one row may round apart from the same row in a longer stack
    np.testing.assert_allclose(np.ravel(one), np.ravel(np.asarray(many)[0]), rtol=1e-14)


# entry point -> (call with a malformed input, the InputError message it must raise)
MALFORMED_INPUTS = {
    "UniformPositionsPrior nan weight": (
        lambda: changepoint.UniformPositionsPrior(2, [np.nan, 0.0], changepoint.GaussianDensity(0, 1)),
        "log_dimension_weights must be",
    ),
    "expfamily.sample m=-1": (lambda: expfamily.sample([0.3, -0.2], -1, 0), "m must be non-negative"),
    "MixtureHyper sigma0_sq=nan": (
        lambda: mixture.MixtureHyper(sigma0_sq=np.nan), "hyperparameters must be positive and finite"
    ),
    "RescaledCauchyCoordinates scale=inf": (
        lambda: sequence_model.RescaledCauchyCoordinates(np.inf, 10.0), "scale must be positive and finite"
    ),
    "FourierDensity 2-d": (lambda: expfamily.FourierDensity(np.zeros((2, 2))), "coefficients must be a 1-d"),
    "FourierDensity nan": (lambda: expfamily.FourierDensity([0.1, np.nan]), "coefficients must be a 1-d"),
    "OptConfig step_size=inf": (
        lambda: expfamily.OptConfig(step_size=np.inf), "step_size must be positive and finite"
    ),
    "fit_gaussian_mf sigma0_sq=inf": (
        lambda: expfamily.fit_gaussian_mf([0.2, 0.6], np.inf, 2), "sigma0_sq must be positive and finite"
    ),
    "make_grid B=nan": (lambda: changepoint.make_grid(np.nan, 1.0), "must be positive and finite"),
    "sample_mixture n=-1": (
        lambda: mixture.sample_mixture(mixture.MixtureModel(2, [0.2, 0.7], [0.4, 0.6], 0.1), -1, 0),
        "n must be non-negative",
    ),
}


@pytest.mark.parametrize("call, message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_is_an_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()


_CHAIN = lambda: changepoint.grid_posterior(  # noqa: E731
    np.zeros(3), 1.0, changepoint.MarkovSitePrior(0.2, changepoint.UniformDensity(-2.0, 2.0)),
    changepoint.make_grid(1.0, 1.0, G=16),
)
# entry point -> a call with a count or index that is not a non-negative integer
BAD_COUNTS = {
    "expfamily.sample m=2.5": lambda: expfamily.sample([0.3, -0.2], 2.5, 0),
    "OptConfig n_iters=2.5": lambda: expfamily.OptConfig(n_iters=2.5),
    "OptConfig n_iters=True": lambda: expfamily.OptConfig(n_iters=True),
    "OptConfig n_mc=3.5": lambda: expfamily.OptConfig(n_mc=3.5),
    "OptConfig seed=-1": lambda: expfamily.OptConfig(seed=-1),
    "fit_gaussian_mf k=2.5": lambda: expfamily.fit_gaussian_mf([0.2, 0.6], 1.0, k=2.5),
    "fit_gaussian_mf k=True": lambda: expfamily.fit_gaussian_mf([0.2, 0.6], 1.0, k=True),
    "fit_gaussian_mf_batch seed=2.5": (
        lambda: expfamily.fit_gaussian_mf_batch(np.array([[0.2, 0.6]]), 1.0, 2, expfamily.OptConfig(), [2.5])
    ),
    "expfamily.elbo seed=-1": (
        lambda: expfamily.elbo(expfamily.GaussMFVariational(np.zeros(2), np.ones(2)), [0.3], 1.0, seed=-1)
    ),
    "sample_mixture n=2.5": (
        lambda: mixture.sample_mixture(mixture.MixtureModel(2, [0.2, 0.7], [0.4, 0.6], 0.1), 2.5, 0)
    ),
    "GridChain.sample size=-1": lambda: _CHAIN().sample(np.random.default_rng(0), -1),
    "GridChain.pairwise i=0.5": lambda: _CHAIN().pairwise(0.5),
    "make_grid G=16.5": lambda: changepoint.make_grid(1, 1, 16.5),
    "make_grid G=True": lambda: changepoint.make_grid(1, 1, True),
    "truncated_series.exact_risk k=2.5": (
        lambda: truncated_series.exact_risk(sequence_model.make_signal("zero", 1.0, 1.0, 8), 16, 1.0, 2.5)
    ),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_count_is_an_input_error(call):
    with pytest.raises(InputError, match="must be non-negative and an integer"):
        call()


def test_mixture_model_needs_a_finite_sigma():
    # an infinite kernel scale would give a density that is 0 everywhere
    with pytest.raises(InputError, match="sigma must be positive and finite"):
        mixture.MixtureModel(1, [0.0], [1.0], float("inf"))
