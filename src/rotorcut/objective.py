"""Rank-2 rotor relaxation of Max-Cut and its derivatives.

Replacing binary labels by planar unit vectors v_i = (c_i, s_i) =
(cos t_i, sin t_i) turns Max-Cut into unconstrained minimization of

    f(t) = sum_edges w_ij * cos(t_i - t_j),

the antiferromagnetic planar rotor energy. This module evaluates f, its
analytic gradient and its sparse Hessian in the Cartesian form of Burer,
Monteiro & Zhang (SIAM J. Optim. 12(2), 2002): with the symmetric weighted
adjacency A (Graph.adjacency), cos(t_i - t_j) = c_i c_j + s_i s_j gives

    f      = (c.Ac + s.As) / 2,
    grad f = c * As - s * Ac,
    H      = A * (c c' + s s') - diag(c * Ac + s * As),

so each call takes n cosines and n sines and products with A, and no
per-edge trigonometry. The private helpers below share one model
(c, s, Ac, As) of a point, so a caller that needs f, grad f and H at the
same point (bmz_minimize) evaluates it once.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .graph import Graph, _angles

TWO_PI = 2.0 * np.pi


def wrap_angles(theta) -> np.ndarray:
    """Normalize angles of any shape to [0, 2*pi). Every consumer is
    2*pi-periodic. Raises ValueError, as _angles does, unless theta is a
    finite integer or float array."""
    wrapped = np.mod(_angles(theta, None), TWO_PI)
    # np.mod rounds tiny negative angles, |t| < ulp(2*pi)/2, up to exactly 2*pi
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


def _cartesian(g: Graph, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """(c, s, Ac, As) with c = cos t, s = sin t and A = g.adjacency, for
    angles already checked by _angles: one configuration (n,) or a batch
    (K, n), each row equal to the single-configuration result."""
    c, s = np.cos(theta), np.sin(theta)
    a = g.adjacency
    if theta.ndim == 1:
        # two products with A run faster than one two-column product
        return c, s, a @ c, a @ s
    # one product with A for the whole batch: each entry of the n x 2K
    # block sums its terms in the same order as a single product does
    block = (a @ np.concatenate([c, s]).T).T
    ac, as_ = np.ascontiguousarray(block).reshape(2, *theta.shape)
    return c, s, ac, as_


def _energy(c, s, ac, as_) -> np.ndarray:
    """(c.Ac + s.As) / 2 over the last axis of a _cartesian model."""
    # every configuration's products are one contiguous row, so each row
    # sums exactly as a single configuration does
    return 0.5 * ((c * ac).sum(axis=-1) + (s * as_).sum(axis=-1))


def _gradient(c, s, ac, as_) -> np.ndarray:
    """c * As - s * Ac from a single-configuration _cartesian model."""
    return c * as_ - s * ac


def _fill_hessian(g: Graph, c, s, ac, as_, out: np.ndarray) -> None:
    """Write the Hessian's data, in the stored order of g.adjacency, into
    out from a single-configuration _cartesian model: w_ij (c_i c_j + s_i s_j)
    once per edge and the diagonal once per vertex, then gathered into each
    stored entry by indexing (np.take would copy the read-only _hessian_slots)."""
    ii, jj, ww = g.edge_arrays
    values = np.empty(g.m + g.n)
    edge = values[:g.m]
    np.multiply(c[ii], c[jj], out=edge)
    edge += s[ii] * s[jj]
    edge *= ww
    values[g.m:] = -(c * ac + s * as_)
    out[:] = values[g._hessian_slots]


def cost(g: Graph, theta) -> float | np.ndarray:
    """Rotor energy sum_edges w_ij * cos(t_i - t_j) = (c.Ac + s.As) / 2.

    One configuration of shape (n,) gives a float; a batch (K, n) gives an
    array of shape (K,), each entry equal to the single-configuration value.
    Invariant under global rotation t -> t + phi and reflection t -> -t.
    Raises ValueError (_angles) on any other shape, a non-real dtype or a
    non-finite angle.
    """
    e = _energy(*_cartesian(g, _angles(theta, g.n, batch=True)))
    return float(e) if e.ndim == 0 else e


def cost_gradient(g: Graph, theta) -> np.ndarray:
    """Analytic gradient: d/dt_i = -sum_j w_ij * sin(t_i - t_j)
    = c_i (As)_i - s_i (Ac)_i. Raises ValueError (_angles) unless theta is
    a finite real array of shape (n,)."""
    return _gradient(*_cartesian(g, _angles(theta, g.n)))


def cost_hessian(g: Graph, theta) -> sparse.csr_array:
    """Sparse symmetric Hessian in CSR form with explicit diagonal.

    H_ij = w_ij * cos(t_i - t_j) on edges, H_ii = -sum_j w_ij * cos(t_i - t_j).
    Off-edge entries are structurally zero; graphs here are sparse, so no
    dense assembly. The pattern is that of Graph.adjacency, whose explicit
    diagonal zeros reserve the diagonal; each call fills the data of a fresh
    copy of it. Raises ValueError (_angles) unless theta is a finite real
    array of shape (n,).
    """
    hess = g.adjacency.copy()
    _fill_hessian(g, *_cartesian(g, _angles(theta, g.n)), hess.data)
    return hess
