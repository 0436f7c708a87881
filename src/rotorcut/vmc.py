"""Variational Monte Carlo over the rotor RBM's Born density.

One optimization step samples the density pi(t) ~ exp(2 log psi(t)) with a
random-walk Metropolis chain, estimates the energy gradient from the
covariance of local energies with the log-derivatives O_k, solves the
regularized stochastic-reconfiguration system (S + lambda I) d = grad
exactly, and moves the packed parameters against d. A rejected step leaves
the walker where it was, so a batch holds one row per distinct walker
position and a count of the kept steps spent there; every estimator is the
count-weighted form on those K rows. S has rank below K, so when K is
smaller than the parameter count P the solve runs in sample space: one
eigendecomposition of a K x K Gram matrix gives the update (the minSR
identity). The local energy is exactly the rotor cost: the Hamiltonian is
diagonal, so there is no kinetic contribution.

The chain persists across iterations; each batch discards its first n_warm
steps so the walkers relax after every parameter update. A segment's
randomness is drawn from the chain's generator once, before its first
step, in the order a per-step draw would consume it; a step is then
deterministic given its proposal offset and log u.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bmz import procedure_cut
from .graph import Graph, _integer, _real
from .objective import TWO_PI, cost
from .rbm import RbmParams, log_derivatives, log_psi

@dataclass(frozen=True)
class VmcConfig:
    """Knobs of the stochastic optimizer.

    n_samp Metropolis steps are taken per iteration and the first n_warm
    are discarded from the estimators, so every batch keeps
    n_samp - n_warm >= 2 samples.
    """

    n_samp: int = 40
    n_warm: int = 0
    n_iter: int = 1000
    lambda_reg: float = 1e-6
    learning_rate: float = 0.01
    proposal_step: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_samp", 2), ("n_warm", 0), ("n_iter", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        for name, strict in (("lambda_reg", False), ("learning_rate", True),
                             ("proposal_step", True)):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, strict))
        if self.n_samp - self.n_warm < 2:
            raise ValueError("need n_samp - n_warm >= 2 kept samples")
        # the sampler draws offsets on [-step, step) as u * (2*step) - step
        if not math.isfinite(2.0 * self.proposal_step):
            raise ValueError(f"2 * proposal_step must be finite, got {self.proposal_step!r}")


@dataclass(slots=True)
class ChainState:
    """One Metropolis walker: position, cached log psi, and its generator.

    The cache always equals log_psi(params, theta) for the parameters the
    chain is currently sampling. mh_step and sample_batch advance the walker
    in place; an accepted step rebinds theta to a new array, so an array
    once read from it never changes.
    """

    theta: np.ndarray
    log_psi: float
    rng: np.random.Generator


@dataclass(frozen=True)
class SrBatch:
    """Distinct walker positions kept from one iteration's chain segment.

    Row k is a position the walker held for counts[k] consecutive kept
    steps, so the kept samples are np.repeat(samples, counts, axis=0) and
    N = counts.sum(). o_matrix rows are packed log-derivatives, e_loc the
    rotor cost, both aligned 1:1 with `samples`. Every estimator weights
    row k by counts[k] / N. accept_rate covers the whole segment, warm
    steps included.
    """

    samples: np.ndarray    # (K, n)
    o_matrix: np.ndarray   # (K, P)
    e_loc: np.ndarray      # (K,)
    counts: np.ndarray     # (K,), kept steps per row, summing to N
    accept_rate: float

    @property
    def n_kept(self) -> int:
        """N, the number of kept Metropolis steps."""
        return int(self.counts.sum())

    @cached_property
    def e_mean(self) -> float:
        """Mean energy over the N kept steps, summed in their chain order."""
        return float(np.repeat(self.e_loc, self.counts).mean())

    @cached_property
    def o_mean(self) -> np.ndarray:
        """Count-weighted column mean of o_matrix."""
        return (self.counts / self.n_kept) @ self.o_matrix

    @cached_property
    def centered(self) -> np.ndarray:
        """o_matrix minus o_mean; every metric product reuses it."""
        return self.o_matrix - self.o_mean

    @cached_property
    def energy_weights(self) -> np.ndarray:
        """y = 2 counts (e_loc - e_mean) / N, so that the SR force is centered.T @ y."""
        return 2.0 * self.counts * (self.e_loc - self.e_mean) / self.n_kept


@dataclass
class RunTrace:
    """Full record of a VMC run; arrays are indexed by iteration."""

    e_mean: np.ndarray
    accept_rate: np.ndarray
    residual: np.ndarray
    min_e_loc: np.ndarray
    final_params: RbmParams
    best_theta: np.ndarray
    best_energy: float
    best_cut_value: float
    best_cut_assignment: np.ndarray
    config: VmcConfig
    wall_time_s: float


def chain_init(p: RbmParams, seed) -> ChainState:
    """Fresh walker at a uniform random configuration drawn from seed."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, size=p.n)
    return ChainState(theta=theta, log_psi=log_psi(p, theta), rng=rng)


def mh_step(p: RbmParams, s: ChainState, delta: np.ndarray, log_u: float) -> bool:
    """One random-walk Metropolis step targeting the Born density.

    Proposes t' = t + delta (wrapped mod 2*pi) and accepts if
    log_u < 2*(log_psi(t') - log_psi(t)), which for log_u = log U with
    U ~ Uniform(0, 1) is acceptance with probability
    min(1, exp(2*(log_psi(t') - log_psi(t)))). With delta ~ Uniform(-step,
    step) per coordinate the proposal is symmetric on the torus, so this
    satisfies detailed balance for pi ~ psi^2. The step draws nothing: it
    is deterministic given (delta, log_u). Advances s in place and returns
    whether the proposal was accepted.
    """
    proposal = s.theta + delta
    np.mod(proposal, TWO_PI, out=proposal)
    lp = log_psi(p, proposal)
    if log_u < 2.0 * (lp - s.log_psi):
        s.theta = proposal
        s.log_psi = lp
        return True
    return False


def sample_batch(g: Graph, p: RbmParams, s: ChainState, cfg: VmcConfig) -> SrBatch:
    """Advance the chain n_samp steps, keeping the last n_samp - n_warm.

    The segment's randomness is drawn at once: one row of n + 1 uniforms
    per step from the chain's generator, the first n scaled to the
    proposal offset in [-step, step) and the last giving log u. These are
    the same numbers in the same order as drawing
    rng.uniform(-step, step, n) and then rng.random() at every step, so the
    chain is the one a per-step draw would give, bit for bit.

    Warm steps are discarded without evaluating derivatives or energies.
    A rejected step leaves the walker where it was, so it adds one to the
    count of the current row instead of a row of its own: the batch holds
    the first kept position and every later kept position the walker moved
    to, evaluated in one log-derivative and one cost call. The chain is
    advanced in place, so the next segment continues from where this one
    ended.
    """
    n, step = s.theta.size, cfg.proposal_step
    draws = s.rng.random((cfg.n_samp, n + 1))
    # Generator.uniform(-step, step) computes -step + (2*step)*u: same roundings
    deltas = draws[:, :n] * (2.0 * step) - step
    log_u = np.log(draws[:, n]).tolist()
    positions, counts = [], []
    accepts = 0
    for k in range(cfg.n_samp):
        accepted = mh_step(p, s, deltas[k], log_u[k])
        accepts += accepted
        if k < cfg.n_warm:
            continue
        if accepted or not counts:
            positions.append(s.theta)
            counts.append(1)
        else:
            counts[-1] += 1
    distinct = np.array(positions)
    return SrBatch(
        samples=distinct,
        o_matrix=log_derivatives(p, distinct),
        e_loc=cost(g, distinct),
        counts=np.array(counts),
        accept_rate=accepts / cfg.n_samp,
    )


def estimate_forces(batch: SrBatch) -> np.ndarray:
    """Monte Carlo gradient estimate from one batch.

    Returns g with g_k = 2*(<e O_k> - <e><O_k>), the sampled gradient of
    E[cost] over the Born density with respect to the packed parameters.
    Averages run over the N kept steps, each distinct row weighted by its
    count; the energy and the column mean <O_k> are batch.e_mean and
    batch.o_mean. g is formed from the centred energies and
    log-derivatives, so a constant energy gives exactly g = 0.
    """
    if batch.n_kept < 2:
        raise ValueError("batch must contain at least 2 samples")
    return batch.energy_weights @ batch.centered


def apply_metric(batch: SrBatch, x, lam: float) -> np.ndarray:
    """(S + lam*I) x for the SR metric S = <O O> - <O><O>, matrix-free.

    With X = batch.centered and C = diag(counts), S = X'CX/N: two passes
    over the K x P matrix X, centred once per batch; the P x P matrix is
    never formed.
    """
    x = np.asarray(x, dtype=float)
    n_params = batch.o_matrix.shape[1]
    if x.shape != (n_params,):
        raise ValueError(f"vector length {x.shape} does not match P={n_params}")
    centered = batch.centered
    return centered.T @ (batch.counts * (centered @ x)) / batch.n_kept + lam * x


def minres_solve(
    apply: Callable[[np.ndarray], np.ndarray],
    rhs,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Solve the symmetric system apply(x) = rhs with MINRES.

    Stops when the residual passes tol relative to |rhs| or at max_iter;
    the true residual |apply(x) - rhs| is measured and returned either way.
    The SR loop no longer calls it (see sr_solve); it stays defined only
    because the benchmark's tracer still names it among its targets, and
    goes together with its tests once the benchmark times sr_solve instead.
    """
    # the package never calls this, so `import rotorcut` need not load scipy's solvers
    from scipy.sparse.linalg import LinearOperator, minres

    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise FloatingPointError("non-finite right-hand side")
    size = rhs.size
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(size), 0.0, 0

    iters = 0

    def _count(_):
        nonlocal iters
        iters += 1

    op = LinearOperator((size, size), matvec=apply, dtype=float)
    x, _ = minres(op, rhs, rtol=tol, maxiter=max_iter, callback=_count)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite values in MINRES solution")
    residual = float(np.linalg.norm(apply(x) - rhs))
    return x, residual, iters


def sr_solve(batch: SrBatch, force, lam: float) -> tuple[np.ndarray, float]:
    """Exact solution d of (S + lam*I) d = force; returns (d, residual).

    With X = batch.centered (K x P), C = diag(counts) and W = C^(1/2) X,
    S = W'W/N and force = X'y = W'z for y = batch.energy_weights and
    z = C^(-1/2) y. When K < P the push-through identity
    (W'W/N + lam I)^-1 W'z = W'(WW'/N + lam I)^-1 z leaves one K x K
    system; otherwise the P x P system is solved. The smaller Gram matrix
    is diagonalized with eigh and each sigma_i + lam inverted, except those
    below max(N, P) * eps * sigma_max, which are dropped: at lam = 0 this
    is the pseudo-inverse, the minimum-norm solution. The residual
    |(S + lam*I) d - force| is measured with one apply_metric call.
    """
    root = np.sqrt(batch.counts)
    w = root[:, None] * batch.centered
    k, n_params = w.shape
    n = batch.n_kept
    if k < n_params:
        gram, rhs = w @ w.T / n, batch.energy_weights / root
    else:
        gram, rhs = w.T @ w / n, np.asarray(force, dtype=float)
    if not np.all(np.isfinite(gram)):
        raise FloatingPointError("non-finite values in the SR metric")
    sigma, u = np.linalg.eigh(gram)
    shifted = sigma + lam
    keep = shifted > max(n, n_params) * np.finfo(float).eps * sigma[-1]
    u = u[:, keep]
    delta = u @ ((rhs @ u) / shifted[keep])
    if k < n_params:
        delta = delta @ w
    if not np.all(np.isfinite(delta)):
        raise FloatingPointError("non-finite values in the SR solution")
    residual = float(np.linalg.norm(apply_metric(batch, delta, lam) - force))
    return delta, residual


def sr_iteration(
    g: Graph, p: RbmParams, chain: ChainState, cfg: VmcConfig
) -> tuple[RbmParams, SrBatch, float]:
    """One full stochastic-reconfiguration cycle.

    Sample, estimate forces, solve (S + lambda_reg I) d = grad, and step
    the packed parameters by -learning_rate * d. Returns (new_params,
    batch, residual): the batch is the iteration's record (energies,
    acceptance, sampled positions) and residual that of the SR solve. The
    chain advances in place.
    """
    batch = sample_batch(g, p, chain, cfg)
    delta, residual = sr_solve(batch, estimate_forces(batch), cfg.lambda_reg)
    updated = RbmParams.unpack(p.pack() - cfg.learning_rate * delta, p.n, p.m)
    return updated, batch, residual


def run_vmc(g: Graph, cfg: VmcConfig, init: RbmParams) -> RunTrace:
    """Run cfg.n_iter SR iterations from the given initial parameters.

    The chain starts at uniform random angles drawn from cfg.seed and is
    never restarted. The reported solution is the lowest-cost configuration
    ever sampled (first occurrence on ties), together with its
    Procedure-Cut rounding. Identical (graph, cfg, init) reproduce the
    trace bit for bit.
    """
    if init.n != g.n:
        raise ValueError(f"params are for n={init.n}, graph has n={g.n}")
    t_start = time.perf_counter()

    chain = chain_init(init, cfg.seed)
    p = init
    e_mean = np.empty(cfg.n_iter)
    accept_rate = np.empty(cfg.n_iter)
    residual = np.empty(cfg.n_iter)
    min_e_loc = np.empty(cfg.n_iter)
    best_energy = np.inf
    best_theta = chain.theta.copy()
    for it in range(cfg.n_iter):
        p, batch, residual[it] = sr_iteration(g, p, chain, cfg)
        e_mean[it] = batch.e_mean
        accept_rate[it] = batch.accept_rate
        k = int(np.argmin(batch.e_loc))
        min_e_loc[it] = batch.e_loc[k]
        if batch.e_loc[k] < best_energy:
            best_energy = float(batch.e_loc[k])
            best_theta = batch.samples[k].copy()
        del batch  # so its (K, P) matrices are freed before the next segment

    best_cut_value, best_cut = procedure_cut(g, best_theta)
    return RunTrace(
        e_mean=e_mean,
        accept_rate=accept_rate,
        residual=residual,
        min_e_loc=min_e_loc,
        final_params=p,
        best_theta=best_theta,
        best_energy=float(best_energy),
        best_cut_value=best_cut_value,
        best_cut_assignment=best_cut,
        config=cfg,
        wall_time_s=time.perf_counter() - t_start,
    )


def _write_csv(path, header, rows) -> None:
    """Header and rows as CSV lines ending in a newline. A float cell is
    written as repr(float(v)), so identical runs write identical bytes and a
    numpy scalar reads as a number; any other cell as str(v)."""
    with open(path, "w") as fh:
        for row in (header, *rows):
            cells = (repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                     for v in row)
            fh.write(",".join(cells) + "\n")


def write_trace_csv(trace: RunTrace, path) -> None:
    """Per-iteration CSV: iteration, then these arrays of trace."""
    columns = ("e_mean", "accept_rate", "residual")
    rows = zip(range(1, trace.e_mean.size + 1), *(getattr(trace, c).tolist() for c in columns))
    _write_csv(path, ("iteration",) + columns, rows)
