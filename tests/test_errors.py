"""Malformed inputs raise InputError.

errors.data_array is checked through the entry points that also take a
single number, and the other checks through one call each.
"""

import numpy as np
import pytest

from vblab import changepoint, divergences, expfamily, harness, mixture, sequence_model, truncated_series
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


_UNIFORM = changepoint.UniformDensity(-2.0, 2.0)
_GRID = np.linspace(-2.0, 2.0, 16)
_STEP = changepoint.PiecewiseSignal(values=np.array([0.5, 0.5, -0.5]), k_star=2, B=1.0)
_GAUSS = sequence_model.GaussianCoordinates(1.0)
_SIEVE = sequence_model.SievePrior.geometric(1.0, 4, _GAUSS)
_GM = lambda mu, sigma2: expfamily.GaussMFVariational(np.array(mu), np.array(sigma2))  # noqa: E731
_CHAIN_OF = lambda **bad: changepoint.GridChain(  # noqa: E731
    **{"grid": _GRID, "log_initial": np.zeros(16), "stay": 1.0, "move": 0.1, "weights": np.ones((2, 16)), **bad}
)
# the constructor and argument checks of the library, one call each
MALFORMED_INPUTS.update({
    "UniformDensity hi=lo": (lambda: changepoint.UniformDensity(1.0, 1.0), "need hi > lo"),
    "PiecewiseSignal past B": (
        lambda: changepoint.PiecewiseSignal(values=np.array([2.0, 2.0]), k_star=1, B=1.0), "exceeds the sup-norm"
    ),
    "make_piecewise_signal k_star=0": (lambda: changepoint.make_piecewise_signal(8, 0, 1.0), "need 1 <= k_star"),
    "make_piecewise_signal amplitude=1.5": (
        lambda: changepoint.make_piecewise_signal(8, 2, 1.0, amplitude=1.5), r"amplitude must lie in \(0, 1\]"
    ),
    "make_prefix_signal k_star=9": (lambda: changepoint.make_prefix_signal(8, 9, 1.0), "need 1 <= k_star"),
    "make_prefix_signal too long": (
        lambda: changepoint.make_prefix_signal(8, 3, 1.0, seg_len=4), "prefix segments do not fit"
    ),
    "MarkovSitePrior change_prob=1": (
        lambda: changepoint.MarkovSitePrior(1.0, _UNIFORM), r"change_prob must lie in \(0, 1\)"
    ),
    "UniformPositionsPrior short weights": (
        lambda: changepoint.UniformPositionsPrior(3, [0.0, 0.0], _UNIFORM), "one dimension weight per piece"
    ),
    "UniformPositionsPrior.power base=1": (
        lambda: changepoint.UniformPositionsPrior.power(4, _UNIFORM, base=1.0), "base must exceed 1"
    ),
    "UniformPositionsPrior concave pattern": (
        lambda: changepoint.UniformPositionsPrior(3, [0.0, 5.0, 0.0], _UNIFORM).pattern_weight(),
        "pattern weight is not convex",
    ),
    "make_grid G=8": (lambda: changepoint.make_grid(1.0, 1.0, 8), "need at least 16 grid points"),
    "fit_mean_field prior=object": (
        lambda: changepoint.fit_mean_field(np.zeros(3), 1.0, object()), "unsupported prior type object"
    ),
    "GridChain log_initial": (lambda: _CHAIN_OF(log_initial=np.zeros(15)), "initial distribution does not match"),
    "GridChain weights": (lambda: _CHAIN_OF(weights=np.ones((2, 15))), "weights must be one row of G values"),
    "GridChain move": (lambda: _CHAIN_OF(move=np.ones(15)), "move must be a scalar or one row of G values"),
    "fit_markov_vb prior=object": (
        lambda: changepoint.fit_markov_vb(np.zeros(3), 1.0, object(), _GRID), "unsupported prior type object"
    ),
    "markov_chain_risks signal length": (
        lambda: changepoint.markov_chain_risks(
            np.zeros((2, 4)), 1.0, changepoint.MarkovSitePrior(0.2, _UNIFORM), _GRID, _STEP
        ),
        "signal length does not match the data",
    ),
    "risk chain length": (
        lambda: changepoint.risk(_CHAIN_OF(), changepoint.PiecewiseSignal(values=np.zeros(4), k_star=1, B=1.0)),
        "chain has 3 sites, signal has 4",
    ),
    "risk posterior=object": (lambda: changepoint.risk(object(), _STEP), "unsupported posterior type object"),
    "GaussianCoordinates sigma0_sq=0": (
        lambda: sequence_model.GaussianCoordinates(0.0), "sigma0_sq must be positive"
    ),
    "RescaledCauchyCoordinates other n": (
        lambda: sequence_model.RescaledCauchyCoordinates(1.0, 10.0).log_evidence_ratio([0.1], 20.0),
        "family was rescaled for n=10.0, called with n=20.0",
    ),
    "RescaledGaussianCoordinates variance=0": (
        lambda: sequence_model.RescaledGaussianCoordinates(0.0, 10.0), "variance and n must be positive"
    ),
    "SievePrior short weights": (
        lambda: sequence_model.SievePrior(np.ones(4), _GAUSS, 4), "dimension_weights must have length K_max"
    ),
    "SievePrior.geometric K_max=0": (
        lambda: sequence_model.SievePrior.geometric(1.0, 0, _GAUSS), "K_max must be a positive integer"
    ),
    "SobolevSignal alpha=0": (
        lambda: sequence_model.SobolevSignal(np.zeros(4), 0.0, 1.0), "alpha and B must be positive"
    ),
    "SequenceObservation n=0": (lambda: sequence_model.SequenceObservation(np.zeros(4), 0.0), "n must be positive"),
    "ShellPosterior p=1": (lambda: sequence_model.ShellPosterior(0, 1.0, (), 4), r"p must lie in \[0, 1\)"),
    "ShellPosterior k=0 p=0.5": (
        lambda: sequence_model.ShellPosterior(0, 0.5, (), 4), "p must be 0 when k = 0"
    ),
    "ShellPosterior missing tilt": (
        lambda: sequence_model.ShellPosterior(1, 0.0, (), 4), "need exactly k coordinate tilts"
    ),
    "ShellPosterior tilt=object": (
        lambda: sequence_model.ShellPosterior(1, 0.0, (object(),), 4), "tilts must be an array of numbers"
    ),
    "log_model_weights length": (
        lambda: sequence_model.log_model_weights(_SIEVE, sequence_model.SequenceObservation(np.zeros(3), 16.0)),
        "observation length 3 != K_max 4",
    ),
    "vb_objective k=5": (
        lambda: sequence_model.vb_objective(_SIEVE, sequence_model.SequenceObservation(np.zeros(4), 16.0), 5, "mf"),
        "k=5 outside 0..4",
    ),
    "sample_observation n=0": (
        lambda: sequence_model.sample_observation(sequence_model.make_signal("zero", 1.0, 1.0, 4), 0.0, 0),
        "n must be positive",
    ),
    "make_signal K_max=0": (lambda: sequence_model.make_signal("zero", 1.0, 1.0, 0), "K_max must be positive"),
    "make_signal kind": (lambda: sequence_model.make_signal("wave", 1.0, 1.0, 4), "unknown signal kind 'wave'"),
    "GaussMFVariational lengths": (lambda: _GM([0.0, 0.0], [1.0]), "mu and sigma2 must have equal length"),
    "GaussMFVariational sigma2<0": (lambda: _GM([0.0], [-1.0]), "variances must be non-negative"),
    "elbo_and_gradient sigma2=0": (
        lambda: expfamily.elbo_and_gradient(_GM([0.0], [0.0]), [0.3], 1.0), "gradients need strictly positive"
    ),
    "fit_gaussian_mf_batch no sample": (
        lambda: expfamily.fit_gaussian_mf_batch([], 1.0, 2, expfamily.OptConfig(), []), "need at least one sample"
    ),
    "exact_risk beta=-1": (
        lambda: truncated_series.exact_risk(sequence_model.make_signal("zero", 1.0, 1.0, 8), 16, -1.0, 2),
        "beta must be non-negative",
    ),
    "exact_risk n=0": (
        lambda: truncated_series.exact_risk(sequence_model.make_signal("zero", 1.0, 1.0, 8), 0, 1.0, 0),
        "n must be a positive integer",
    ),
    "exact_risk k=17": (
        lambda: truncated_series.exact_risk(sequence_model.make_signal("zero", 1.0, 1.0, 8), 16, 1.0, 17),
        r"k=17 outside 0\.\.16",
    ),
    "theory_exponent t=0": (lambda: truncated_series.theory_exponent(1.0, 1.0, 0.0), r"t must lie in \(0, 1\]"),
    "chain_audit empty rows": (
        lambda: divergences.chain_audit(np.ones((2, 0)), np.ones((2, 0)), [0.5, 2.0]),
        r"probability rows must form a non-empty \(m, s\) array",
    ),
    "cavi_fixed_k k=0": (lambda: mixture.cavi_fixed_k([0.1, 0.2], 0), "k must be at least 1"),
    "select_k_batch no sample": (
        lambda: mixture.select_k_batch([], [1], mixture.MixtureHyper(), []), "need at least one sample"
    ),
    "RateTable lengths": (
        lambda: harness.RateTable(n=np.array([64, 128]), mean_risk=np.ones(1), stderr=np.zeros(2),
                                  replications=np.ones(2, dtype=int)),
        "table columns must be 1-d and equally long",
    ),
    "RateFit r_squared=2": (
        lambda: harness.RateFit(slope=1.0, intercept=0.0, r_squared=2.0), r"r_squared must lie in \[0, 1\]"
    ),
})


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
