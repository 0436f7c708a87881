"""Independent reference implementations used to check the package.

Everything here is written from the mathematical definitions, on purpose
avoiding the package's own code paths: plain-Python enumeration for cuts,
central finite differences for derivatives, trapezoid quadrature for the
wavefunction integral, mpmath for Bessel functions, and dense linear
algebra for the SR metric. The dense Procedure-Cut and the triplet-form
Hessian are the package's former implementations, kept to cross-check
the sorted sweep and the cached CSR structure that replaced them; both
share only the input normalisation (wrap_angles) and cut_value with the
package.
"""

import itertools

import mpmath
import numpy as np
from scipy import sparse

from rotorcut import cut_value, wrap_angles

mpmath.mp.dps = 50

TWO_PI = 2.0 * np.pi


def enumerate_max_cut(n, edges):
    """Exhaustive Max-Cut by trying every labeling with x[0] fixed to +1."""
    best_val = -np.inf
    best_x = None
    for rest in itertools.product((1, -1), repeat=n - 1):
        x = (1,) + rest
        val = 0.5 * sum(w * (1 - x[i] * x[j]) for i, j, w in edges)
        if val > best_val:
            best_val = val
            best_x = x
    return best_val, np.array(best_x)


def rotor_cost(edges, theta):
    return sum(w * np.cos(theta[i] - theta[j]) for i, j, w in edges)


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        grad[k] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def fd_hessian_column(f_grad, x, k, h=1e-5):
    """Column k of the Hessian via central differences of a gradient."""
    xp = np.asarray(x, dtype=float).copy()
    xm = xp.copy()
    xp[k] += h
    xm[k] -= h
    return (f_grad(xp) - f_grad(xm)) / (2.0 * h)


def mp_log_i0(x):
    return float(mpmath.log(mpmath.besseli(0, mpmath.mpf(x))))


def mp_bessel_ratio(x):
    x = mpmath.mpf(x)
    return float(mpmath.besseli(1, x) / mpmath.besseli(0, x))


def quadrature_log_psi(a, b, c, theta, points=4096):
    """log of the rotor-RBM integral by trapezoid quadrature.

    The integrand factorizes over hidden units, so the m-dimensional
    tensor-product trapezoid sum equals a product of one-dimensional
    trapezoid sums; each is evaluated on `points` nodes with log-sum-exp.
    """
    theta = np.asarray(theta, dtype=float)
    v = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    total = float(np.sum(c * v))
    phis = np.linspace(0.0, TWO_PI, points, endpoint=False)
    cphi, sphi = np.cos(phis), np.sin(phis)
    for i in range(a.shape[0]):
        u = b[i] + a[i] @ v
        vals = u[0] * cphi + u[1] * sphi
        peak = vals.max()
        total += peak + np.log(np.exp(vals - peak).sum()) + np.log(TWO_PI / points)
    return total


def dense_sr_metric(o_matrix, lam):
    """(S + lam I) assembled explicitly: S = O'O/N - mean outer mean."""
    o = np.asarray(o_matrix, dtype=float)
    n, p = o.shape
    mean = o.mean(axis=0)
    s = o.T @ o / n - np.outer(mean, mean)
    return s + lam * np.eye(p)


def direct_forces(o_matrix, e_loc):
    """Gradient estimate g_k = 2 cov(e, O_k) via explicit loops."""
    o = np.asarray(o_matrix, dtype=float)
    e = np.asarray(e_loc, dtype=float)
    n, p = o.shape
    e_mean = e.sum() / n
    g = np.empty(p)
    for k in range(p):
        g[k] = 2.0 * (np.dot(e, o[:, k]) / n - e_mean * o[:, k].sum() / n)
    return e_mean, g


def dense_procedure_cut(g, theta):
    """Procedure-Cut by evaluating every candidate split line at once:
    n x n labels and n x m label products, O(n*m) time and memory."""
    theta = wrap_angles(theta)
    if theta.shape != (g.n,):
        raise ValueError(f"rotor config length {theta.shape} does not match n={g.n}")
    ii, jj, ww = g.edge_arrays

    # offsets[k, i] = (t_i - t_k) mod 2*pi; row k is candidate Gamma = t_k
    offsets = np.mod(theta[None, :] - theta[:, None], TWO_PI)
    labels = np.where(offsets < np.pi, 1.0, -1.0)
    if len(g.edges):
        values = 0.5 * ((1.0 - labels[:, ii] * labels[:, jj]) @ ww)
    else:
        values = np.zeros(g.n)
    best = int(np.argmax(values))
    x = labels[best].astype(int)
    return cut_value(g, x), x


def triplet_hessian(g, theta):
    """Rotor-energy Hessian assembled from (row, col, value) triplets."""
    theta = np.asarray(theta, dtype=float)
    ii, jj, ww = g.edge_arrays
    c = ww * np.cos(theta[ii] - theta[jj])
    diag = np.zeros(g.n)
    np.subtract.at(diag, ii, c)
    np.subtract.at(diag, jj, c)
    rows = np.concatenate([ii, jj, np.arange(g.n)])
    cols = np.concatenate([jj, ii, np.arange(g.n)])
    data = np.concatenate([c, c, diag])
    return sparse.coo_array((data, (rows, cols)), shape=(g.n, g.n))
