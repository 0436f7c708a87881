"""Rotor restricted Boltzmann machine with circular visible and hidden units.

The wavefunction on visible angles t = (t_1..t_n) is

    psi(t) = integral over [0,2pi]^m of exp(sum_ij a_ij <z_i, v_j>
                                            + sum_i <b_i, z_i>
                                            + sum_j <c_j, v_j>) dphi,

with v_j = (cos t_j, sin t_j) and z_i = (cos phi_i, sin phi_i). Each hidden
rotor integrates out in closed form: with the effective field
u_i = b_i + sum_j a_ij v_j,

    log psi(t) = sum_j <c_j, v_j> + sum_i [log(2*pi) + log I0(|u_i|)].

psi is strictly positive, so log psi is always defined and the Born density
is pi(t) proportional to exp(2 log psi); the normalizer is never needed.
Parameter derivatives of log psi are analytic through the Bessel ratio
I1/I0 and drive the stochastic reconfiguration update.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import _angles, _integer, _real, _real_array
from .objective import TWO_PI

_LOG_TWO_PI = np.log(TWO_PI)
_MAX_FIELD = np.sqrt(np.finfo(float).max)  # so that |u_i|^2 cannot overflow


@functools.cache
def _special():
    """scipy.special, imported at the first Bessel evaluation: a process
    that only generates, parses or runs BMZ never loads it."""
    from scipy import special

    return special


def _log_i0(arr: np.ndarray) -> np.ndarray:
    """log I0(x) of a finite, nonnegative float array, overflow-free via the
    exponentially scaled i0e.

    Relative accuracy holds across the whole range: x + log(i0e(x)) cancels
    catastrophically below x ~ 1e-4 (the true value is ~x^2/4), so small
    arguments switch to log1p of the power series. Stays accurate out to
    x ~ 1e6 and beyond, where log I0(x) ~ x - log(2*pi*x)/2.
    """
    large = np.log(_special().i0e(arr))
    large += arr
    # the usual case on the sampling path: no argument needs the series
    if arr.size and np.minimum.reduce(arr, axis=None) > 0.05:
        return large
    x = np.minimum(arr, 0.05)  # the series' range, where x**6 cannot overflow
    x2 = x * x
    # series truncation error is below 1e-15 relative for x <= 0.05
    small = np.log1p(x2 / 4.0 + x2 * x2 / 64.0 + x2 * x2 * x2 / 2304.0)
    return np.where(arr <= 0.05, small, large)


def _ratio(arr: np.ndarray) -> np.ndarray:
    """I1(x)/I0(x), the derivative of log I0, of a finite, nonnegative float
    array: monotone increasing from 0 toward 1, always inside [0, 1)."""
    special = _special()
    return special.i1e(arr) / special.i0e(arr)


def visible_vectors(theta) -> np.ndarray:
    """Unit vectors (cos t_j, sin t_j): float angles (..., n) give (..., n, 2)."""
    v = np.empty(theta.shape + (2,))
    np.cos(theta, out=v[..., 0])
    np.sin(theta, out=v[..., 1])
    return v


@dataclass(frozen=True)
class RbmParams:
    """Real parameters of the rotor RBM.

    a: (m, n) couplings, b: (m, 2) hidden biases, c: (n, 2) visible biases,
    each finite, of integer or float dtype (stored as float; complex, bool,
    string and object arrays raise ValueError naming the field and dtype).
    So that log psi cannot overflow, |b_i| + sum_j |a_ij|, which bounds the
    hidden field |u_i|, must be <= sqrt(float max) for every i, and sum_j
    |c_j| finite; otherwise ValueError names the field at fault.
    pack/unpack is the one packed layout: a (row-major), then b, then c
    (row-major), giving n_params = n*m + 2*(n + m); log_derivatives writes
    its blocks in the same order. An instance keeps read-only copies of the
    arrays it is given, so the bound holds for its life; a change of
    parameters builds a new instance, as unpack does.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in "abc":
            x = np.array(_real_array(f"RbmParams.{name}", getattr(self, name)))
            x.flags.writeable = False
            object.__setattr__(self, name, x)
        if self.a.ndim != 2:
            raise ValueError("a must be a (m, n) matrix")
        m, n = self.a.shape
        if self.b.shape != (m, 2):
            raise ValueError(f"b must have shape ({m}, 2), got {self.b.shape}")
        if self.c.shape != (n, 2):
            raise ValueError(f"c must have shape ({n}, 2), got {self.c.shape}")
        with np.errstate(over="ignore"):  # past float max a sum is inf, and refused
            hidden = np.hypot(*self.b.T) + np.add.reduce(np.abs(self.a), axis=1)
            visible = np.add.reduce(np.hypot(*self.c.T))
        top = np.maximum.reduce(hidden, initial=0.0)  # nan propagates
        if not top <= _MAX_FIELD:
            raise ValueError(f"RbmParams.a, b: |b_i| + sum_j |a_ij| must be <= {_MAX_FIELD:.6g}"
                             f" for every hidden unit i, got {top:.6g}")
        if not visible < np.inf:  # refuses inf and nan
            raise ValueError(f"RbmParams.c: sum_j |c_j| must be finite, got {visible}")

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def n_params(self) -> int:
        return self.n * self.m + 2 * (self.n + self.m)

    def pack(self) -> np.ndarray:
        return np.concatenate([self.a.ravel(), self.b.ravel(), self.c.ravel()])

    @classmethod
    def unpack(cls, vec, n: int, m: int) -> "RbmParams":
        n, m = _integer("n", n, 0), _integer("m", m, 0)
        vec = _real_array("packed parameters", vec)
        expected = n * m + 2 * (n + m)
        if vec.shape != (expected,):
            raise ValueError(
                f"packed vector has {vec.shape} entries, expected {expected}"
            )
        return cls(a=vec[: m * n].reshape(m, n), b=vec[m * n : m * n + 2 * m].reshape(m, 2),
                   c=vec[m * n + 2 * m :].reshape(n, 2))


def _fields(p: RbmParams, theta, batch: bool = True) -> tuple[np.ndarray, ...]:
    """(v, u, |u_i|) for one configuration (n,) or, with batch, a batch
    (K, n): shapes (..., n, 2), (..., m, 2) and (..., m), with u = b + a v
    the effective fields. Raises ValueError (_angles) on any other shape, a
    non-real dtype or a non-finite angle.
    """
    v = visible_vectors(_angles(theta, p.n, batch))
    u = p.a @ v
    u += p.b
    sq = np.add.reduce(u * u, axis=-1)
    return v, u, np.sqrt(sq, out=sq)


def log_psi(p: RbmParams, theta) -> float:
    """Closed-form log wavefunction of one configuration; see module docstring."""
    v, _, norms = _fields(p, theta, batch=False)
    v *= p.c
    return float(
        np.add.reduce(v, axis=None) + p.m * _LOG_TWO_PI + np.add.reduce(_log_i0(norms))
    )


def log_derivatives(p: RbmParams, theta) -> np.ndarray:
    """Packed gradient of log psi in the parameters.

    One configuration of shape (n,) gives shape (P,); a batch (K, n) gives
    (K, P), each row equal to the single-configuration result.
    d/dc_j = v_j; d/db_i = r(|u_i|) * u_i/|u_i|; d/da_ij = <d/db_i, v_j>,
    with r = I1/I0. A vanishing hidden field is the analytic limit:
    r(x)/x -> 1/2, so the b and a blocks of that unit are exactly zero.
    """
    v, u, norms = _fields(p, theta)
    factor = np.zeros(norms.shape)
    nz = norms > 0.0
    factor[nz] = _ratio(norms[nz]) / norms[nz]
    db = factor[..., None] * u                # (..., m, 2)
    lead, mn = v.shape[:-2], p.m * p.n
    # the blocks go straight into the result: a separate da and a
    # concatenated copy would be transients as large as a batch's result,
    # and on P = 2700 their page faults cost more than batching saves
    out = np.empty(lead + (p.n_params,))
    np.matmul(db, v.swapaxes(-1, -2), out=out[..., :mn].reshape(*lead, p.m, p.n))
    out[..., mn : mn + 2 * p.m] = db.reshape(*lead, 2 * p.m)
    out[..., mn + 2 * p.m :] = v.reshape(*lead, 2 * p.n)
    return out


def _couplings(n: int, alpha: float, sigma: float, seed) -> np.ndarray:
    """(m, n) couplings a ~ N(0, sigma^2) of m = round(alpha * n) hidden
    units, deterministic per seed; all zero for sigma = 0."""
    m = int(round(_real("alpha", alpha, 0.0, strict=True) * n))
    if m < 1:
        raise ValueError(f"hidden density alpha={alpha} gives no hidden units for n={n}")
    sigma = _real("sigma", sigma, 0.0)
    return np.random.default_rng(seed).normal(0.0, sigma, size=(m, n))


def init_random(n: int, alpha: float = 1.0, sigma: float = 0.1, seed=None) -> RbmParams:
    """Gaussian couplings a ~ N(0, sigma^2), zero biases. Deterministic per seed."""
    n = _integer("n", n, 1)
    a = _couplings(n, alpha, sigma, seed)
    return RbmParams(a=a, b=np.zeros((a.shape[0], 2)), c=np.zeros((n, 2)))


def init_pretrained(
    theta_star,
    alpha: float = 1.0,
    r: float = 1.0,
    sigma: float = 0.1,
    seed=None,
) -> RbmParams:
    """Bias the visible units toward a known good rotor configuration
    theta_star, of shape (n,).

    c_j = r * (cos t*_j, sin t*_j) concentrates the initial Born density
    near theta_star (independent von-Mises-like marginals for a = 0);
    hidden biases start at zero and couplings at N(0, sigma^2).
    """
    theta_star = _angles(theta_star, np.size(theta_star))  # one configuration
    r = _real("r", r, 0.0)
    a = _couplings(theta_star.size, alpha, sigma, seed)
    return RbmParams(a=a, b=np.zeros((a.shape[0], 2)), c=r * visible_vectors(theta_star))
