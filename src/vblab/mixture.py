"""Location-scale mixture density estimation by conjugate coordinate ascent.

The kernel exp(-(x/sigma)^2) / (2 sigma Gamma(3/2)) is the Gaussian
density of variance sigma^2 / 2, which keeps every coordinate-ascent
update conjugate.  The factorization keeps the weight simplex as one block:
q(tau) x q(w) x prod_j q(mu_j) times the assignment responsibilities,
with a shared precision tau = sigma^{-2} across components.

Model selection maximizes the converged bound plus the log prior weight
of the component count (Poisson by default), ties to the smaller k.

There is one coordinate ascent, _cavi_rows, and it fits a stack of rows
at once: each row is one (sample, k) pair, at that sample's own n, padded
to the stack's largest k.  Padded components get log-weight -inf, so their
responsibilities are exactly 0, and they are masked out of every term of
the bound.  The -E[tau] x^2 term of the log-responsibilities is the same
for every component and cancels in the normalization, so they are affine
in x, and one log-sum-exp over the stack gives the responsibilities and
the per-point normalizers; the assignment entropy follows from those
without a log(r) pass.  The conjugate updates and the rest of the bound
need only the per-component sufficient statistics N = sum r, sum r x and
sum r x^2 (Blei, Kucukelbir & McAuliffe 2017, sec. 3; Bishop 2006,
sec. 10.2), taken about each sample's mean so that they do not cancel
when the data sit far from 0.  Every sweep ends at a CAVI point, where
the digamma-weighted E log w and E log tau terms cancel, so the bound is
evaluated in that collapsed form.  The first sweep starts from equal
E log w on the live components: the prior's value is one constant per
row, which cancels in the responsibilities but swamps them at tiny
alpha0.  One stopping rule holds for every row, which counts its own
sweeps: it leaves the stack once its own bound moves by at most _TOL
relative (absolute below 1), or after _MAX_SWEEPS sweeps.  Rows join the
stack in row order as others leave, while it holds at most _CAVI_CELLS
(row, component, point) cells, and a sweep's per-point work runs on one
block per distinct n, so neither a row's result nor the memory depends
on how many rows, or which n, are fit together.  select_k_batch fits
every candidate k of every sample, of any lengths, this way, and keeps
each sample's best state as its rows finish; cavi_fixed_k and select_k
are its one-row and one-sample cases.

Plain coordinate ascent crawls along the flat directions of a redundant
component, so a row still running at sweep _S0 = 20 over-relaxes its
sweeps (adaptive over-relaxed bound optimization, Salakhutdinov & Roweis,
ICML 2003).  When a sweep moves the row from its last accepted point theta
to the CAVI point theta_C, the next sweep starts from
theta + eta (theta_C - theta): the means of q(mu) move linearly and the
Dirichlet concentrations in log space, while v and the rate of q(tau) come
from the plain update.  eta starts at 1 and grows by _ETA_GROWTH = 1.5, up
to _ETA_MAX = 4, with each over-relaxed sweep that is accepted, which it is
only if its bound is finite and no lower than the last accepted bound.
Otherwise the sweep is dropped, eta resets to 1 and the row restarts from
its last accepted point.  Only accepted bounds enter elbo_trace, every
sweep counts toward _MAX_SWEEPS, and a row's last allowed sweep is plain.
A row that stops before _S0 is plain CAVI, bit for bit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._lse import _logsumexp_weights
from ._rng import derive_seed
from .divergences import _normalized
from .errors import InputError, count, data_array

__all__ = [
    "MixtureModel",
    "MixtureHyper",
    "GMFState",
    "kernel_psi",
    "mixture_pdf",
    "sample_mixture",
    "cavi_fixed_k",
    "select_k",
    "select_k_batch",
    "hellinger_to_truth",
]


def kernel_psi(x, sigma: float):
    """Normalized kernel density exp(-(x/sigma)^2) / (2 sigma Gamma(3/2))."""
    if not 0 < sigma < math.inf:
        raise InputError("sigma must be positive and finite")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InputError("x must be finite")
    return _kernel(x, sigma)


def _kernel(x: np.ndarray, sigma: float) -> np.ndarray:
    """kernel_psi on points and a scale the caller has already checked."""
    from scipy.special import gammaln

    log_norm = math.log(2.0 * sigma) + gammaln(1.5)
    with np.errstate(over="ignore"):  # a square past the float range has density exp(-inf) = 0
        return np.exp(-np.abs(x / sigma) ** 2 - log_norm)


@dataclass(frozen=True)
class MixtureModel:
    """A k-component location mixture with shared kernel scale."""

    k: int
    mu: np.ndarray
    w: np.ndarray
    sigma: float

    def __post_init__(self):
        mu = data_array(self.mu, "mu")
        w = np.asarray(self.w, dtype=float)
        if mu.shape != (self.k,) or w.shape != (self.k,):
            raise InputError("mu and w must have length k")
        if not 0 < self.sigma < math.inf:
            raise InputError("sigma must be positive and finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "w", _normalized(w))


def mixture_pdf(model: MixtureModel, x):
    """sum_j w_j psi_sigma(x - mu_j)."""
    x = data_array(x, "x", scalar=True)
    return _kernel(x[:, None] - model.mu[None, :], model.sigma) @ model.w


def sample_mixture(
    model: MixtureModel, n: int, seed: Union[int, np.random.Generator]
) -> np.ndarray:
    """n draws, each component Gaussian of variance sigma^2 / 2."""
    n = count(n, "n")
    rng = np.random.default_rng(seed)
    comps = rng.choice(model.k, size=n, p=model.w)
    return model.mu[comps] + rng.standard_normal(n) * model.sigma / math.sqrt(2.0)


@dataclass(frozen=True)
class MixtureHyper:
    """Conjugate prior settings: mu_j ~ N(0, sigma0_sq), w ~ Dir(alpha0),
    tau = sigma^{-2} ~ Gamma(a0, b0), component count ~ Poisson(xi0)."""

    sigma0_sq: float = 4.0
    alpha0: float = 1.0
    a0: float = 2.0
    b0: float = 1.0
    xi0: float = 2.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.sigma0_sq, self.alpha0, self.a0, self.b0, self.xi0)):
            raise InputError("all hyperparameters must be positive and finite")


@dataclass(frozen=True)
class GMFState:
    """Converged (or best-effort) coordinate-ascent state at fixed k."""

    k: int
    mu_mean: np.ndarray
    mu_var: np.ndarray
    w_concentration: np.ndarray
    tau_shape: float
    tau_rate: float
    responsibilities: np.ndarray
    elbo_trace: tuple
    converged: bool
    hyper: MixtureHyper

    @property
    def elbo(self) -> float:
        return self.elbo_trace[-1]

    def posterior_mean_model(self) -> MixtureModel:
        """Plug-in mixture at the factor means."""
        sigma = 1.0 / math.sqrt(self.tau_shape / self.tau_rate)
        w = self.w_concentration / self.w_concentration.sum()
        return MixtureModel(k=self.k, mu=self.mu_mean, w=w, sigma=sigma)


# The batched fit holds at most this many (row, component, point) cells in
# one stack, so its memory grows with neither replications, candidates nor n grid.
_CAVI_CELLS = 1 << 17
# A fit stops once its bound moves by at most _TOL relative (absolute below
# 1), or after _MAX_SWEEPS sweeps.
_TOL = 1e-8
_MAX_SWEEPS = 1000
# From sweep _S0 on, a row still running over-relaxes its sweeps by a factor
# that grows by _ETA_GROWTH, up to _ETA_MAX, while its bound keeps rising.
# Rows that stop sooner (every selected fit at the shipped sizes) are plain CAVI.
_S0 = 20
_ETA_GROWTH = 1.5
_ETA_MAX = 4.0


def _init_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    qs = np.quantile(x, (np.arange(k) + 0.5) / k)
    return qs + 0.01 * x.std() * rng.standard_normal(k)


class _Stack(NamedTuple):
    """The per-row fields of a CAVI stack, its rows sorted by n (in joining order within an n).

    Fixed for a row: its index, n, k, live mask and -inf padding, sample mean
    c, q(tau) shape a and the terms of its bound that do not move.  Then its
    last accepted CAVI point (m, v, alpha, e_tau, e_logw), with the centers m
    less c, the start of its next sweep (m_s, e_logw_s), the factor eta that
    start was over-relaxed by, its last bound and the sweeps it has run.
    """

    row: np.ndarray
    n: np.ndarray
    k: np.ndarray
    live: np.ndarray
    pad: np.ndarray
    c: np.ndarray
    a: np.ndarray
    fixed: np.ndarray
    m: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    e_tau: np.ndarray
    e_logw: np.ndarray
    m_s: np.ndarray
    e_logw_s: np.ndarray
    eta: np.ndarray
    last: np.ndarray
    sweep: np.ndarray


def _start_rows(samples, joining, hyper: MixtureHyper, k_max: int):
    """The _Stack of the rows joining a stack (None for no rows), and one moments block per n.

    joining holds (row index, (i, k, seed)) pairs in row order.  Each row's
    centers are drawn from its seed, and its data are taken about its
    sample's mean c: with y = x - c, a block holds each row's (1, y, y^2).
    """
    from scipy.special import gammaln

    a0, b0, alpha0 = hyper.a0, hyper.b0, hyper.alpha0
    fields, blocks = [], {}
    for n in sorted({samples[i].size for _, (i, _, _) in joining}):
        group = [(row, i, k, seed) for row, (i, k, seed) in joining if samples[i].size == n]
        rows = len(group)
        x = np.stack([samples[i] for _, i, _, _ in group])
        k = np.array([k for _, _, k, _ in group])
        m, v = np.zeros((rows, k_max)), np.ones((rows, k_max))
        for j, (_, _, kj, seed) in enumerate(group):
            m[j, :kj] = _init_centers(x[j], kj, np.random.default_rng(seed))
            v[j, :kj] = x[j].var() / kj + 1e-6
        live = (np.arange(k_max) < k[:, None]).astype(float)
        c = x.mean(axis=1, keepdims=True)
        blocks[n] = moments = np.empty((rows, n, 3))
        moments[..., 0] = 1.0
        y = np.subtract(x, c, out=moments[..., 1])
        np.multiply(y, y, out=moments[..., 2])
        # q(tau) has shape a0 + n / 2 after the first cycle, whatever the data
        a = a0 + 0.5 * n
        # the terms of the bound that are fixed per row: the normalizers of the
        # priors on w (Dir(alpha0) on the row's k components) and tau, gammaln(a)
        # from the entropy of q(tau), and the constant of the likelihood
        fixed = (
            gammaln(k * alpha0) - k * gammaln(alpha0)
            + a0 * math.log(b0) - gammaln(a0)
            + gammaln(a) - 0.5 * n * math.log(math.pi)
        )
        m, e_logw = m - c, np.zeros((rows, k_max))
        fields.append(_Stack(
            row=np.array([row for row, _, _, _ in group]), n=np.full(rows, n), k=k, live=live,
            pad=np.where(live > 0, 0.0, -np.inf), c=c, a=np.full(rows, a), fixed=fixed,
            m=m, v=v, alpha=np.full((rows, k_max), alpha0), e_tau=np.full((rows, 1), a0 / b0),
            e_logw=e_logw, m_s=m, e_logw_s=e_logw, eta=np.ones((rows, 1)),
            last=np.zeros(rows), sweep=np.zeros(rows, dtype=int),
        ))
    new = _Stack(*(np.concatenate(field) for field in zip(*fields))) if fields else None
    return new, blocks


def _restack(stack, keep, blocks, new, new_blocks):
    """The kept rows of a stack and the new ones, sorted by n, with their blocks.

    Only the block of an n that loses or gains rows is rebuilt.
    """
    if stack is None:
        return new, new_blocks
    out = {}
    for n in sorted(set(blocks) | set(new_blocks)):
        block, kept = blocks.get(n), keep[stack.n == n]
        if block is not None and not kept.all():
            block = block[kept]
        if n in new_blocks:
            block = new_blocks[n] if block is None else np.concatenate((block, new_blocks[n]))
        if block.shape[0]:
            out[n] = block
    stack = _Stack(*(field[keep] for field in stack))
    if new is not None:
        stack = _Stack(*(np.concatenate(pair) for pair in zip(stack, new)))
        order = np.concatenate([np.flatnonzero(stack.n == n) for n in out])
        stack = _Stack(*(field[order] for field in stack))
    return stack, out


def _cavi_rows(samples, rows, hyper: MixtureHyper, k_max: int):
    """Coordinate ascent for a sequence of rows; yields (row index, GMFState) as each row finishes.

    Row (i, k, seed) fits samples[i], a 1-d array of any length, with k
    components, its centers initialized from seed (a Generator or a seed
    for one).  The rows run as one stack padded to k_max components: they
    join it in row order while the cells held, k_max times each row's n,
    stay within _CAVI_CELLS (a row always joins an empty stack), and each
    leaves at the sweep where its own bound stops moving, or at its own
    _MAX_SWEEPS-th sweep.  Every row counts its own sweeps, and a sweep's
    cell work runs on one (rows_n, k_max, n) block per distinct n, with no
    row padded along its points, so a row's trace, flag and state do not
    depend on the rows it ran with.  When a row joins or leaves, only its
    n's block is rebuilt.

    Each sweep cycles responsibilities -> q(w) -> q(mu) -> q(tau) and
    evaluates the bound after the full cycle.  With y = x - c, c the row's
    sample mean, the log-responsibilities are A_k + B_k y, and with N,
    S1 = sum r y and S2 = sum r y^2 the assignment entropy is
    sum_j logsumexp_j - sum_k (A_k N_k + B_k S1_k), with no log(r) pass.
    Taking the moments about c rather than 0 keeps sum r (x - m)^2 from
    cancelling when the data sit far from 0; what cancellation is left
    grows with the squared ratio of the sample's range to a component's
    spread.  Padded components keep finite placeholder factors and zero
    statistics; the live mask drops them from the bound.

    Every sweep ends at alpha = alpha0 + N and b = b0 + sum r ((x - mu)^2 + v),
    where the E log w terms of the bound cancel and its q(tau) terms reduce
    to gammaln(a) - a log b; the bound is taken in that collapsed form.  The
    first sweep starts from E log w = 0 on the live components, not from the
    prior's digamma(alpha0) - digamma(k alpha0), about -1 / alpha0, which is
    one constant per row but swamps the responsibilities at tiny alpha0.
    From its sweep _S0 on a row still running takes the over-relaxed steps
    of the module docstring; m_s and e_logw_s hold each row's start.
    """
    from scipy.special import digamma, gammaln

    b0, alpha0, s0 = hyper.b0, hyper.alpha0, hyper.sigma0_sq
    log_mu0 = -0.5 * math.log(2 * math.pi * s0)
    stack, blocks, done, joined, traces = None, {}, None, 0, {}
    # the most cells the stack ever holds: _CAVI_CELLS, or one row past it, or every row
    sizes = [k_max * samples[i].size for i, _, _ in rows]
    buffer = np.empty(min(sum(sizes), max(_CAVI_CELLS, max(sizes, default=0))))
    while True:
        if done is None or done.any():
            # the rows that finished leave, and the next rows join while their cells fit
            keep = None if stack is None else ~done
            held = 0 if stack is None else k_max * int(stack.n[keep].sum())
            joining = []
            while joined < len(rows):
                cells = k_max * samples[rows[joined][0]].size
                if held and held + cells > _CAVI_CELLS:
                    break
                held += cells
                joining.append((joined, rows[joined]))
                joined += 1
            if not held:
                return
            stack, blocks = _restack(stack, keep, blocks, *_start_rows(samples, joining, hyper, k_max))
            traces.update((row, []) for row, _ in joining)
            # each block's rows in the stack, in n order, and its cells in the one buffer
            # that takes every block's logits and then its responsibilities
            spans, views, lo, offset = [], [], 0, 0
            for moments in blocks.values():
                rows_n, n = moments.shape[:2]
                spans.append((lo, lo + rows_n))
                views.append(buffer[offset : offset + rows_n * k_max * n].reshape(rows_n, k_max, n))
                lo, offset = lo + rows_n, offset + rows_n * k_max * n
        ids, _, k, live, pad, c, a, fixed, m, v, alpha, e_tau, e_logw, m_s, e_logw_s, eta, last, sweep = stack
        A = e_logw_s - e_tau * (m_s * m_s + v)
        B = 2.0 * e_tau * m_s
        prev = m, v, alpha, e_tau, e_logw  # the last accepted CAVI point
        logits_a = A + pad
        stats, lse_sums, weights = [], [], []
        for (lo_n, hi_n), moments, z in zip(spans, blocks.values(), views):
            np.multiply(B[lo_n:hi_n, :, None], moments[:, None, :, 1], out=z)  # B y
            z += logits_a[lo_n:hi_n, :, None]
            lse, r = _logsumexp_weights(z, axis=1, out=z)
            stats.append(r @ moments)
            lse_sums.append(lse.sum(axis=1))
            weights.append(r)
        stats = np.concatenate(stats)
        N, S1, S2 = stats[..., 0], stats[..., 1], stats[..., 2]
        h_assign = np.concatenate(lse_sums) - (A * N + B * S1).sum(axis=1)

        alpha = alpha0 + N
        v = 1.0 / (1.0 / s0 + 2.0 * e_tau * N)
        mu = 2.0 * e_tau * (S1 + c * N) * v  # sum r x = S1 + c N
        m = mu - c
        b = b0 + (S2 - 2.0 * m * S1 + (m * m + v) * N).sum(axis=1)  # + sum r ((x - mu)^2 + v)

        # the expectations under the new factors, which the next sweep reuses
        e_tau = (a / b)[:, None]
        alpha_hat = (alpha * live).sum(axis=1)
        e_logw = digamma(alpha) - digamma(alpha_hat)[:, None]

        # per component: E log p(mu) + H[q(mu)] + the q(w) normalizer
        per_k = (
            gammaln(alpha) + log_mu0 - (mu * mu + v) / (2 * s0)
            + 0.5 * np.log(2 * math.pi * math.e * v)
        )
        elbo = fixed + (per_k * live).sum(axis=1) - gammaln(alpha_hat) - a * np.log(b) + h_assign

        # a row's first sweep has no bound to compare with; last holds a 0 there
        stop = (sweep > 0) & (np.abs(elbo - last) <= _TOL * np.maximum(1.0, np.abs(elbo)))
        # an over-relaxed sweep stands only if its bound is finite and no lower
        # than the last one; otherwise the row goes back to prev.  Rows before
        # their sweep _S0 keep eta = 1, so their sweeps all stand
        stand = (eta[:, 0] == 1.0) | (np.isfinite(elbo) & (elbo >= last))
        # the next start is over-relaxed by the grown eta, except after a dropped
        # sweep, and before sweep _S0 or at the last two sweeps, which are plain
        grow = stand & (sweep >= _S0) & (sweep + 2 < _MAX_SWEEPS)
        eta = np.where(grow[:, None], np.minimum(_ETA_GROWTH * eta, _ETA_MAX), 1.0)
        back = ~stand
        if back.any():
            for new, old in zip((m, v, alpha, e_tau, e_logw), prev):
                new[back] = old[back]
            elbo[back], stop[back] = last[back], False
        for i, value in zip(ids[stand].tolist(), elbo[stand].tolist()):
            traces[i].append(value)
        done = stop | (sweep + 1 == _MAX_SWEEPS)
        for (lo_n, hi_n), r in zip(spans, weights) if done.any() else ():
            for j in np.flatnonzero(done[lo_n:hi_n]) + lo_n:
                kj, i = int(k[j]), int(ids[j])
                yield i, GMFState(
                    k=kj,
                    mu_mean=mu[j, :kj].copy(),
                    mu_var=v[j, :kj].copy(),
                    w_concentration=alpha[j, :kj].copy(),
                    tau_shape=float(a[j]),
                    tau_rate=float(b[j]),
                    responsibilities=r[j - lo_n, :kj].T.copy(),  # a copy even at k = 1
                    elbo_trace=tuple(traces.pop(i)),
                    converged=bool(stop[j]),
                    hyper=hyper,
                )
        step = eta > 1.0
        if step.any():
            # theta + eta (theta_C - theta) from the two last accepted points.  Stepping
            # from the over-relaxed start instead would grow by (1 - eta) per sweep the
            # directions the sweep pins, such as a well-separated component's mean,
            # which the bound does not see until they overflow
            m_prev, alpha_prev = prev[0], prev[2]
            alpha_x = alpha_prev * (alpha / alpha_prev) ** eta
            e_logw_x = digamma(alpha_x) - digamma((alpha_x * live).sum(axis=1))[:, None]
            m_s = np.where(step, m_prev + eta * (m - m_prev), m)
            e_logw_s = np.where(step, e_logw_x, e_logw)
        else:
            m_s, e_logw_s = m, e_logw
        stack = stack._replace(
            m=m, v=v, alpha=alpha, e_tau=e_tau, e_logw=e_logw, m_s=m_s, e_logw_s=e_logw_s,
            eta=eta, last=elbo, sweep=sweep + 1,
        )


def cavi_fixed_k(
    data,
    k: int,
    hyper: MixtureHyper = MixtureHyper(),
    seed: Union[int, np.random.Generator] = 0,
) -> GMFState:
    """Conjugate coordinate ascent at a fixed component count.

    Each sweep cycles responsibilities -> q(w) -> q(mu) -> q(tau); the
    bound is evaluated after the full cycle and is non-increasing only up
    to float roundoff (a decrease beyond 1e-9 would indicate a bug, and
    the tests enforce that).  This is the one-row case of the batched fit.
    """
    x = data_array(data, "data")
    if k < 1:
        raise InputError("k must be at least 1")
    k = int(k)
    return next(_cavi_rows([x], [(0, k, seed)], hyper, k))[1]


def select_k_batch(
    samples,
    k_candidates: Sequence[int],
    hyper: MixtureHyper,
    seeds: Sequence[int],
) -> list:
    """select_k for each of a list of samples, of any lengths, in one stacked fit.

    An (R, n) array gives its R rows.  Sample r is fit at every candidate k
    from derive_seed(seeds[r], k); the result is [(k, state)] in sample
    order, equal to select_k(samples[r], k_candidates, hyper, seeds[r]) for
    each r.  Rows finish in any order, and each sample holds only its best
    state so far.
    """
    from scipy.special import gammaln

    if not isinstance(samples, (list, tuple)):
        samples = data_array(samples, "samples", 2)
    xs = [data_array(x, "samples") for x in samples]
    if not xs:
        raise InputError("need at least one sample")
    cands = sorted(set(int(k) for k in k_candidates))
    if not cands:
        raise InputError("need at least one candidate k")
    if cands[0] < 1:
        raise InputError(f"candidate k must be at least 1, got {cands[0]}")
    if len(seeds) != len(xs):
        raise InputError(f"need one seed per sample, got {len(seeds)} for {len(xs)}")
    rows = [(i, k, derive_seed(seed, k)) for i, seed in enumerate(seeds) for k in cands]
    best = [None] * len(xs)
    for row, state in _cavi_rows(xs, rows, hyper, cands[-1]):
        i, k, _ = rows[row]
        score = state.elbo + k * math.log(hyper.xi0) - hyper.xi0 - gammaln(k + 1.0)
        if math.isnan(score):  # a scan in increasing k keeps a nan first and never picks one later
            score = math.inf if k == cands[0] else -math.inf
        if best[i] is None or (score, -k) > best[i][:2]:  # ties to the smaller k
            best[i] = (score, -k, state)
    return [(-neg_k, state) for _, neg_k, state in best]


def select_k(
    data,
    k_candidates: Sequence[int],
    hyper: MixtureHyper = MixtureHyper(),
    seed: int = 0,
) -> tuple[int, GMFState]:
    """Best component count by converged bound plus log Poisson(k; xi0).

    Candidates are scanned in increasing order with strict improvement
    required, so ties resolve to the smaller k.  The one-sample case of
    select_k_batch.
    """
    return select_k_batch(data_array(data, "data")[None, :], k_candidates, hyper, [seed])[0]


def _check_grid_density(f0, grid) -> tuple[np.ndarray, np.ndarray]:
    """f0 and grid as checked arrays, once f0 is tabulated on the grid and integrates to one."""
    f0, grid = data_array(f0, "f0"), data_array(grid, "grid")
    if f0.shape != grid.shape:
        raise InputError("f0 must be tabulated on the grid")
    with np.errstate(over="ignore"):  # an integral past the float range is inf, and refused
        total = float(np.trapezoid(f0, grid))
    if abs(total - 1.0) > 1e-3:
        raise InputError(f"f0 integrates to {total} on this grid; refine or widen it")
    return f0, grid


def hellinger_to_truth(state: GMFState, f0, grid) -> float:
    """Squared Hellinger distance between the plug-in mixture and f0 on a grid."""
    f0, grid = _check_grid_density(f0, grid)
    fit = mixture_pdf(state.posterior_mean_model(), grid)
    return 0.5 * float(np.trapezoid((np.sqrt(fit) - np.sqrt(f0)) ** 2, grid))
