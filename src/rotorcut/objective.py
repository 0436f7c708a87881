"""Rank-2 rotor relaxation of Max-Cut and its derivatives.

Replacing binary labels by planar unit vectors v_i = (cos t_i, sin t_i)
turns Max-Cut into unconstrained minimization of

    f(t) = sum_edges w_ij * cos(t_i - t_j),

the antiferromagnetic planar rotor energy. This module evaluates f, its
analytic gradient and sparse Hessian, and a dense quantum-mechanical
cross-check: f(t) equals the expectation of the Heisenberg XZ Hamiltonian
in the product state with Bloch vectors (sin t_i, 0, cos t_i).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .graph import Graph

TWO_PI = 2.0 * np.pi

# Dense 2^n x 2^n construction; past this the oracle is pointless.
HEISENBERG_MAX_NODES = 10


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


def cost(g: Graph, theta) -> float:
    """Rotor energy sum_edges w_ij * cos(t_i - t_j).

    Invariant under global rotation t -> t + phi and reflection t -> -t.
    """
    theta = _check_config(g, theta)
    ii, jj, ww = g.edge_arrays
    return float((ww * np.cos(theta[ii] - theta[jj])).sum())


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


def _kron_chain(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def heisenberg_expectation(g: Graph, theta) -> float:
    """tr(H rho) for H = sum w_ij (X_i X_j + Z_i Z_j) and the product state
    rho = prod (I + sin(t_i) X_i + cos(t_i) Z_i)/2, built as dense matrices.

    Agrees with cost(g, theta) to near machine precision; kept as an
    independent cross-check, hence the deliberately direct construction.
    Guarded at n <= 10.
    """
    theta = _check_config(g, theta)
    if g.n > HEISENBERG_MAX_NODES:
        raise ValueError(
            f"n={g.n} too large for dense construction (max {HEISENBERG_MAX_NODES})"
        )
    eye = np.eye(2)
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    pauli_z = np.array([[1.0, 0.0], [0.0, -1.0]])

    dim = 1 << g.n
    ham = np.zeros((dim, dim))
    for i, j, w in g.edges:
        for op in (pauli_x, pauli_z):
            factors = [op if k in (i, j) else eye for k in range(g.n)]
            ham += w * _kron_chain(factors)

    rho = _kron_chain(
        [
            0.5 * (eye + np.sin(t) * pauli_x + np.cos(t) * pauli_z)
            for t in theta
        ]
    )
    # both matrices are real symmetric, so tr(H rho) = sum(H * rho)
    return float(np.sum(ham * rho))
