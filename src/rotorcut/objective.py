"""Rank-2 rotor relaxation of Max-Cut and its derivatives.

Replacing binary labels by planar unit vectors v_i = (cos t_i, sin t_i)
turns Max-Cut into unconstrained minimization of

    f(t) = sum_edges w_ij * cos(t_i - t_j),

the antiferromagnetic planar rotor energy. This module evaluates f, its
analytic gradient and its sparse Hessian.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .graph import Graph

TWO_PI = 2.0 * np.pi


def wrap_angles(theta) -> np.ndarray:
    """Normalize angles to [0, 2*pi). Every consumer is 2*pi-periodic."""
    wrapped = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    # np.mod rounds tiny negative angles, |t| < ulp(2*pi)/2, up to exactly 2*pi
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


def _check_config(g: Graph, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (g.n,):
        raise ValueError(f"rotor config length {theta.shape} does not match n={g.n}")
    return theta


def cost(g: Graph, theta) -> float | np.ndarray:
    """Rotor energy sum_edges w_ij * cos(t_i - t_j).

    One configuration of shape (n,) gives a float; a batch (K, n) gives an
    array of shape (K,), each entry equal to the single-configuration value.
    Invariant under global rotation t -> t + phi and reflection t -> -t.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != g.n:
        raise ValueError(f"rotor configs of shape {theta.shape} do not match n={g.n}")
    ii, jj, ww = g.edge_arrays
    # take keeps every gathered row contiguous, so each row sums exactly as
    # a single configuration does
    e = (ww * np.cos(theta.take(ii, axis=-1) - theta.take(jj, axis=-1))).sum(axis=-1)
    return float(e) if theta.ndim == 1 else e


def cost_gradient(g: Graph, theta) -> np.ndarray:
    """Analytic gradient: d/dt_i = -sum_j w_ij * sin(t_i - t_j)."""
    theta = _check_config(g, theta)
    ii, jj, ww = g.edge_arrays
    s = ww * np.sin(theta[ii] - theta[jj])
    grad = np.zeros(g.n)
    np.subtract.at(grad, ii, s)
    np.add.at(grad, jj, s)
    return grad


def cost_hessian(g: Graph, theta) -> sparse.csr_array:
    """Sparse symmetric Hessian in CSR form with explicit diagonal.

    H_ij = w_ij * cos(t_i - t_j) on edges, H_ii = -sum_j w_ij * cos(t_i - t_j).
    Off-edge entries are structurally zero; graphs here are sparse, so no
    dense assembly. The sparsity pattern is built once per graph
    (Graph.csr_structure); each call only fills the data array.
    """
    theta = _check_config(g, theta)
    ii, jj, ww = g.edge_arrays
    c = ww * np.cos(theta[ii] - theta[jj])
    diag = np.zeros(g.n)
    np.subtract.at(diag, ii, c)
    np.subtract.at(diag, jj, c)
    indptr, indices, order = g.csr_structure
    data = np.concatenate([c, c, diag])[order]
    return sparse.csr_array((data, indices, indptr), shape=(g.n, g.n))

