"""Deterministic baseline: trust-region minimization of the rotor energy
plus the half-circle rounding that converts angles back into a cut.

The minimizer is a standard trust-region Newton method with the subproblem
solved by Steihaug-Toint truncated conjugate gradients on the sparse CSR
Hessian. Rounding (Procedure-Cut of Burer, Monteiro & Zhang, SIAM J.
Optim. 12(2), 2002) tries every vertex angle as a split line, puts a
vertex on the line on the +1 side, and keeps the best resulting cut (the
lowest vertex index among equals); a sweep over the sorted angles scores
all n candidates in O(n log n + m) time and O(n + m) memory. Both entry
points reject non-finite angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph import Graph, cut_value
from .objective import TWO_PI, cost, cost_gradient, cost_hessian, wrap_angles

# below this radius the model reduction is under the rounding noise of the
# objective, so further shrinking can't make progress
_RADIUS_FLOOR = 1e-13


@dataclass(frozen=True)
class BmzConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8          # stop on ||grad||_inf <= grad_tol
    tr_radius_init: float = 1.0
    tr_radius_max: float = 10.0
    accept_ratio_lo: float = 0.25   # shrink radius below this ratio
    accept_ratio_hi: float = 0.75   # grow radius above it (on boundary steps)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not (0 < self.tr_radius_init <= self.tr_radius_max):
            raise ValueError("need 0 < tr_radius_init <= tr_radius_max")
        if not (0 < self.accept_ratio_lo < self.accept_ratio_hi < 1):
            raise ValueError("need 0 < accept_ratio_lo < accept_ratio_hi < 1")


def _check_angles(g: Graph, theta) -> np.ndarray:
    """Wrapped copy of a rotor configuration; raises ValueError on a length
    mismatch or a non-finite angle."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (g.n,):
        raise ValueError(f"rotor config length {theta.shape} does not match n={g.n}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("rotor angles must be finite")
    return wrap_angles(theta)


def _boundary_tau(z: np.ndarray, d: np.ndarray, radius: float) -> float:
    """Positive tau with ||z + tau*d|| = radius."""
    a = float(d @ d)
    b = 2.0 * float(z @ d)
    c = float(z @ z) - radius * radius
    disc = max(b * b - 4.0 * a * c, 0.0)
    return (-b + np.sqrt(disc)) / (2.0 * a)


def _steihaug_cg(grad: np.ndarray, hess, radius: float) -> np.ndarray:
    """Approximately minimize g.p + p.H.p/2 subject to ||p|| <= radius.

    Truncated CG: exits to the boundary on negative curvature or when the
    iterate leaves the region, otherwise runs until the residual passes the
    standard forcing tolerance min(0.5, sqrt(||g||))*||g||.
    """
    n = grad.size
    z = np.zeros(n)
    r = grad.copy()
    d = -r
    g_norm = float(np.linalg.norm(grad))
    if g_norm == 0.0:
        return z
    tol = min(0.5, np.sqrt(g_norm)) * g_norm
    rr = g_norm * g_norm
    for _ in range(2 * n):
        hd = hess @ d
        curv = float(d @ hd)
        if curv <= 0.0:
            return z + _boundary_tau(z, d, radius) * d
        alpha = rr / curv
        z_next = z + alpha * d
        if np.linalg.norm(z_next) >= radius:
            return z + _boundary_tau(z, d, radius) * d
        r = r + alpha * hd
        rr_next = float(r @ r)
        if np.sqrt(rr_next) < tol:
            return z_next
        d = -r + (rr_next / rr) * d
        z = z_next
        rr = rr_next
    return z


def bmz_minimize(
    g: Graph,
    theta0,
    cfg: Optional[BmzConfig] = None,
    callback: Optional[Callable[[np.ndarray, float], None]] = None,
) -> tuple[np.ndarray, float, int]:
    """Locally minimize the rotor energy starting from theta0.

    Returns (theta_star, energy, iters) with energy = cost(g, theta_star).
    Iteration stops when ||grad||_inf <= cfg.grad_tol; otherwise iters hits
    cfg.max_iters (or the trust radius collapses to rounding noise, which
    is reported the same way through iters). Only strictly decreasing steps
    are accepted, so iterate energies are non-increasing and the result
    never exceeds cost(g, theta0).

    callback, if given, receives (theta, energy) at the start and after
    every accepted step. Raises ValueError if theta0 has the wrong length
    or a non-finite entry.
    """
    cfg = cfg or BmzConfig()
    theta = _check_angles(g, theta0)

    f = cost(g, theta)
    grad = cost_gradient(g, theta)
    radius = cfg.tr_radius_init
    if callback is not None:
        callback(theta.copy(), f)

    iters = 0
    for _ in range(cfg.max_iters):
        if float(np.max(np.abs(grad))) <= cfg.grad_tol:
            break
        iters += 1
        hess = cost_hessian(g, theta)
        p = _steihaug_cg(grad, hess, radius)
        pred = -(float(grad @ p) + 0.5 * float(p @ (hess @ p)))
        theta_trial = theta + p
        f_trial = cost(g, theta_trial)
        actual = f - f_trial
        ratio = actual / pred if pred > 0.0 else -np.inf

        if ratio < cfg.accept_ratio_lo:
            radius *= 0.25
        elif ratio > cfg.accept_ratio_hi and np.linalg.norm(p) >= 0.99 * radius:
            radius = min(2.0 * radius, cfg.tr_radius_max)

        if actual > 0.0:
            theta = theta_trial
            f = f_trial
            grad = cost_gradient(g, theta)
            if callback is not None:
                callback(wrap_angles(theta), f)

        if radius < _RADIUS_FLOOR:
            break

    theta = wrap_angles(theta)
    return theta, cost(g, theta), iters


def random_start(n: int, seed) -> np.ndarray:
    """Default initial configuration: i.i.d. uniform angles on [0, 2*pi)."""
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, size=n)


def _first_false(s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For the split line at each sorted angle s_k, the first position p in
    [lo_k, hi_k) failing the +1 predicate (s_p - s_k) mod 2*pi < pi, or hi_k.

    The predicate must hold on a prefix of [lo_k, hi_k), which makes this
    a vectorised binary search: O(n log n), and the predicate is evaluated
    exactly as written, so no border can be off by an ulp.
    """
    lo = lo.copy()
    hi = hi.copy()
    active = np.flatnonzero(lo < hi)
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        plus = np.mod(s[mid] - s[active], TWO_PI) < np.pi
        lo[active[plus]] = mid[plus] + 1
        hi[active[~plus]] = mid[~plus]
        active = active[lo[active] < hi[active]]
    return lo


def procedure_cut(g: Graph, theta) -> tuple[float, np.ndarray]:
    """Round a rotor configuration to a cut.

    Every vertex angle is tried as the split line Gamma: vertex i goes to
    the +1 side iff (t_i - Gamma) mod 2*pi < pi (ties, i.e. t_i = Gamma,
    land on +1). The candidate with the largest cut wins; among equals the
    lowest vertex index wins, so the result is deterministic. The returned
    value is exactly cut_value(g, x). Raises ValueError if theta has the
    wrong length or a non-finite entry.

    The split line sweeps the sorted angles. In sorted order the +1 side of
    a candidate is the run of angles from Gamma up to Gamma + pi, plus a
    prefix [0, Gamma - pi) that wraps around, and both ends only move
    forward as Gamma turns. So every vertex is +1 on one or two runs of
    consecutive candidates, every edge is cut where exactly one endpoint
    is +1, and difference arrays over the candidates add up all n cut
    values: O(n log n + m) time and O(n + m) memory.

    With unit (or integer) weights the cut values are exact and the result
    equals that of evaluating every candidate cut directly. With real
    weights the running sums round differently from a direct sum, so among
    candidates whose cuts tie to the last few bits a different, equally
    good labelling may win.
    """
    theta = _check_angles(g, theta)
    n = g.n
    ii, jj, ww = g.edge_arrays

    order = np.argsort(theta, kind="stable")
    s = theta[order]
    # +1 side of the candidate at sorted position q: [lo, end) and [0, wrap)
    lo = np.searchsorted(s, s, side="left")
    end = _first_false(s, lo, np.full(n, n))
    wrap = _first_false(s, np.zeros(n, dtype=np.intp), lo)
    # and of the vertex at sorted position p: candidates [a, b) and [c, n)
    p = np.arange(n)
    a = np.searchsorted(end, p, side="right")
    b = np.searchsorted(lo, p, side="right")
    c = np.searchsorted(wrap, p, side="right")

    # cut(q) = sum_edges w * (I_i + I_j - 2 I_i I_j) with I_v(q) = [v is +1]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = p
    ri, rj = rank[ii], rank[jj]
    ai, bi, ci = a[ri], b[ri], c[ri]
    aj, bj, cj = a[rj], b[rj], c[rj]
    degree = np.bincount(ri, ww, n) + np.bincount(rj, ww, n)
    starts = [a, c, np.maximum(ai, aj), np.maximum(ai, cj),
              np.maximum(ci, aj), np.maximum(ci, cj)]
    stops = [b, np.full(n, n), np.minimum(bi, bj), bi, bj, np.full_like(ci, n)]
    weights = [degree, degree] + [-2.0 * ww] * 4
    diff = np.zeros(n + 1)
    for start, stop, w in zip(starts, stops, weights):
        w = np.where(start < stop, w, 0.0)
        diff += np.bincount(start, w, n + 1)
        diff -= np.bincount(stop, w, n + 1)
    values = np.empty(n)
    values[order] = np.cumsum(diff[:n])

    q = rank[int(np.argmax(values))]
    on_plus = np.zeros(n, dtype=bool)
    on_plus[lo[q]:end[q]] = True
    on_plus[:wrap[q]] = True
    x = np.where(on_plus[rank], 1, -1)
    return cut_value(g, x), x
