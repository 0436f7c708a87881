"""Deterministic baseline: trust-region minimization of the rotor energy
plus the half-circle rounding that converts angles back into a cut.

The minimizer is a standard trust-region Newton method with the subproblem
solved by Steihaug-Toint truncated conjugate gradients on the sparse CSR
Hessian; one CG path serves a point until a step from it is accepted, as
rejected steps only shrink the radius. Rounding (Procedure-Cut of Burer,
Monteiro & Zhang, SIAM J. Optim. 12(2), 2002) tries every vertex angle as
a split line, puts a vertex on the line on the +1 side, and keeps the best
resulting cut (the lowest vertex index among equals); a sweep over the
sorted angles scores all n candidates in O(n log n + m) time and
O(n + m) memory. Both entry points check theta once, in graph._angles:
its shape, its dtype and that every angle is finite.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .graph import Graph, _angles, _integer, cut_value
from .objective import (
    TWO_PI,
    _cartesian,
    _energy,
    _fill_hessian,
    _gradient,
    cost,
    wrap_angles,
)

# stopping rule: ||grad||_inf <= _GRAD_TOL, _MAX_ITERS iterations, or a
# radius below _RADIUS_FLOOR, where the model reduction is under the
# rounding noise of the objective, so further shrinking can't make progress
_MAX_ITERS = 500
_GRAD_TOL = 1e-8
_RADIUS_FLOOR = 1e-13

# trust-region radius schedule: start, cap, and the step-quality ratios
_RADIUS_INIT = 1.0
_RADIUS_MAX = 10.0
_ACCEPT_RATIO_LO = 0.25   # shrink the radius below this ratio
_ACCEPT_RATIO_HI = 0.75   # grow it above this one (on boundary steps)


def _boundary_tau(z: np.ndarray, d: np.ndarray, radius: float) -> float:
    """Positive tau with ||z + tau*d|| = radius."""
    a = float(d @ d)
    b = 2.0 * float(z @ d)
    c = float(z @ z) - radius * radius
    disc = max(b * b - 4.0 * a * c, 0.0)
    return (-b + np.sqrt(disc)) / (2.0 * a)


def _steihaug_cg(
    grad: np.ndarray, hess, radius: float
) -> tuple[list, Optional[np.ndarray]]:
    """Krylov path of g.p + p.H.p/2 within ||p|| <= radius, for _path_step.

    Truncated CG: exits to the boundary on negative curvature or when the
    iterate leaves the region, otherwise runs until the residual passes the
    standard forcing tolerance min(0.5, sqrt(||g||))*||g||. Returns
    (steps, end): one (z_k, d_k, ||z_{k+1}||) per step, with inf in place
    of the norm where the curvature d_k.H.d_k was <= 0, and the interior
    end point (the last iterate when the 2n cap stops the walk), or None
    after a boundary exit. The iterates do not depend on the radius, which
    only decides where the walk stops, so the path serves every radius up
    to the one it was built at.
    """
    n = grad.size
    z = np.zeros(n)
    r = grad.copy()
    d = -r
    steps = []
    g_norm = float(np.linalg.norm(grad))
    if g_norm == 0.0:
        return steps, z
    tol = min(0.5, np.sqrt(g_norm)) * g_norm
    rr = g_norm * g_norm
    for _ in range(2 * n):
        hd = hess @ d
        curv = float(d @ hd)
        if curv <= 0.0:
            steps.append((z, d, np.inf))
            return steps, None
        alpha = rr / curv
        z_next = z + alpha * d
        reach = np.linalg.norm(z_next)
        steps.append((z, d, reach))
        if reach >= radius:
            return steps, None
        r = r + alpha * hd
        rr_next = float(r @ r)
        if np.sqrt(rr_next) < tol:
            return steps, z_next
        d = -r + (rr_next / rr) * d
        z = z_next
        rr = rr_next
    return steps, z


def _path_step(path, radius: float) -> np.ndarray:
    """The truncated-CG step at this radius, read off a _steihaug_cg path
    built at a radius no smaller: the first step that met negative
    curvature or left the region ends on the boundary, else the walk ended
    inside it. The same float operations on the same arrays as CG run
    afresh at this radius, so the step is bit-identical to it."""
    steps, end = path
    for z, d, reach in steps:
        if reach >= radius:
            return z + _boundary_tau(z, d, radius) * d
    return end


def bmz_minimize(
    g: Graph,
    theta0,
    *,
    callback: Optional[Callable[[np.ndarray, float], None]] = None,
) -> tuple[np.ndarray, float, int]:
    """Locally minimize the rotor energy starting from theta0.

    Returns (theta_star, energy, iters) with energy = cost(g, theta_star).
    The loop exits when ||grad||_inf <= _GRAD_TOL, after _MAX_ITERS
    iterations, or when rejected steps shrink the trust radius below
    _RADIUS_FLOOR; on the bmz-sparse graphs (seeds 0-3, 5 starts each) 25
    of 40 solves stop on the gradient and 15 on the floor. Only strictly
    decreasing steps are accepted, so iterate energies are non-increasing
    and the result never exceeds cost(g, theta0). The rotor model
    (c, s, Ac, As) is evaluated once per trial point; f, grad and the
    Hessian change only at an accepted point (Nocedal & Wright, 4.1), where
    they come from that point's model. The Hessian is filled when a CG
    path is built, so a point the gradient test stops at gets none; its
    data is refilled in place on one copy of g.adjacency. One Steihaug-CG
    path serves a point until a step from it is accepted: a rejected step
    only shrinks the radius, and the next step is read off the kept path,
    which is bit-identical to running CG afresh (Conn, Gould & Toint,
    Trust-Region Methods, SIAM 2000).

    callback, if given, receives (theta, energy) at the start and after
    every accepted step. Raises ValueError if theta0 has the wrong length
    or a non-finite entry.
    """
    theta = wrap_angles(_angles(theta0, g.n))

    model = _cartesian(g, theta)
    f = float(_energy(*model))
    grad = _gradient(*model)
    hess = g.adjacency.copy()
    radius = _RADIUS_INIT
    if callback is not None:
        callback(theta.copy(), f)

    iters = 0
    path = None
    for _ in range(_MAX_ITERS):
        if float(np.max(np.abs(grad))) <= _GRAD_TOL:
            break
        iters += 1
        if path is None:
            # a new point: the model is still this point's
            _fill_hessian(g, *model, hess.data)
            path = _steihaug_cg(grad, hess, radius)
        p = _path_step(path, radius)
        pred = -(float(grad @ p) + 0.5 * float(p @ (hess @ p)))
        theta_trial = theta + p
        model = _cartesian(g, theta_trial)
        f_trial = float(_energy(*model))
        actual = f - f_trial
        ratio = actual / pred if pred > 0.0 else -np.inf

        if ratio < _ACCEPT_RATIO_LO:
            radius *= 0.25
        elif ratio > _ACCEPT_RATIO_HI and np.linalg.norm(p) >= 0.99 * radius:
            radius = min(2.0 * radius, _RADIUS_MAX)

        # a rejected step leaves the point, grad, hess and the Krylov path
        # as they are; actual <= 0 makes its ratio <= 0 or -inf (NaN on a
        # NaN energy, which keeps the radius), so the radius never grows
        # and the kept path is exact for the next step
        if actual > 0.0:
            path = None
            theta = theta_trial
            f = f_trial
            grad = _gradient(*model)
            if callback is not None:
                callback(wrap_angles(theta), f)

        if radius < _RADIUS_FLOOR:
            break

    theta = wrap_angles(theta)
    return theta, cost(g, theta), iters


def random_start(n: int, seed) -> np.ndarray:
    """Default initial configuration: i.i.d. uniform angles on [0, 2*pi)."""
    n = _integer("n", n, 1)
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
    theta = wrap_angles(_angles(theta, g.n))
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
