"""Independent reference implementations used to check the package.

Everything here is written from the mathematical definitions, on purpose
avoiding the package's own code paths: plain-Python enumeration for cuts,
central finite differences for derivatives, trapezoid quadrature for the
wavefunction integral, mpmath for Bessel functions, dense linear algebra
for the SR metric, and the dense 2^n x 2^n Heisenberg expectation that the
rotor cost must equal. The per-edge rotor gradient, the dense
Procedure-Cut, the triplet-form Hessian and the one-pair rejection loop
of the graph generator are the package's former implementations, kept to
cross-check the Cartesian objective, the sorted sweep and the batched
generator that replaced them; they share only the input normalisation
(wrap_angles) and cut_value with the package. The trust-region loop that
assembles the Hessian on every iteration is the former bmz_minimize; it
shares the objective with the package and runs its own one-shot
Steihaug-CG, the former one, on every iteration, so it pins both the loop
and the package's reuse of one Krylov path after a rejected step. The
former log psi, which allocated every intermediate, and the former
Metropolis draw, taken one step at a time, pin the in-place log psi and
the segment draw of the sampler bit for bit. The former edge-list parser,
which read one line at a time into triples for Graph, pins the array
parse: every text gives the same graph or the same error. The former
symmetric CSR build, through SciPy's COO conversion, pins the graph's
adjacency and Hessian slots, now built from one sort.
"""

import itertools

import mpmath
import numpy as np
from scipy import sparse, special

from rotorcut import (
    Graph, GraphFormatError, cost, cost_gradient, cost_hessian, cut_value, wrap_angles,
)
from rotorcut.graph import _angles, _integer

mpmath.mp.dps = 50

TWO_PI = 2.0 * np.pi

# Dense 2^n x 2^n construction; past this the oracle is pointless.
HEISENBERG_MAX_NODES = 10


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


def rotor_gradient(g, theta):
    """d/dt_k = -sum_l w_kl sin(t_k - t_l), one sine per edge."""
    theta = np.asarray(theta, dtype=float)
    ii, jj, ww = g.edge_arrays
    s = ww * np.sin(theta[ii] - theta[jj])
    return np.bincount(jj, s, g.n) - np.bincount(ii, s, g.n)


def _kron_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def heisenberg_expectation(g, theta):
    """tr(H rho) for H = sum w_ij (X_i X_j + Z_i Z_j) and the product state
    rho = prod (I + sin(t_i) X_i + cos(t_i) Z_i)/2, built as dense matrices.

    Agrees with the rotor cost to near machine precision; the deliberately
    direct construction is what makes it an independent cross-check.
    Guarded at n <= 10.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (g.n,):
        raise ValueError(f"rotor config length {theta.shape} does not match n={g.n}")
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


def former_log_psi(p, theta):
    """log psi of one configuration as the package computed it before its
    evaluator worked in place: the same operands in the same order, each
    intermediate a fresh array."""
    theta = np.asarray(theta, dtype=float)
    v = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u = p.b + p.a @ v
    norms = np.sqrt(np.add.reduce(u * u, axis=-1))
    log_i0 = norms + np.log(special.i0e(norms))
    if not norms.min() > 0.05:
        x2 = norms * norms
        small = np.log1p(x2 / 4.0 + x2 * x2 / 64.0 + x2 * x2 * x2 / 2304.0)
        log_i0 = np.where(norms <= 0.05, small, log_i0)
    return float((p.c * v).sum() + p.m * np.log(TWO_PI) + log_i0.sum())


def per_step_draw(rng, n, step):
    """The randomness of one Metropolis step as the sampler once drew it at
    every step: the proposal offset, then log u for the acceptance test."""
    delta = rng.uniform(-step, step, size=n)
    return delta, np.log(rng.random())


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


def loop_generated_edges(n, m_edges, weight_mode, seed):
    """generate_graph's edges by drawing one candidate pair per iteration
    (i, then j, as scalars) until m_edges distinct pairs are chosen, then
    the weights over the sorted pairs from the same generator."""
    rng = np.random.default_rng(seed)
    chosen = set()
    while len(chosen) < m_edges:
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j:
            chosen.add((min(i, j), max(i, j)))
    if weight_mode == "unit":
        weights = [1.0] * m_edges
    else:
        lo, hi = weight_mode
        weights = rng.uniform(lo, hi, size=m_edges).tolist()
    return tuple((i, j, w) for (i, j), w in zip(sorted(chosen), weights))


def former_parse_edge_list(text):
    """parse_edge_list as one line at a time: the stripped non-blank lines,
    the "n m" header, then int(i) - 1, int(j) - 1, float(w) per edge line,
    handed to Graph as triples."""
    numbered = enumerate(map(str.strip, text.splitlines()), start=1)
    lines = [(lineno, line) for lineno, line in numbered if line]
    if not lines:
        raise GraphFormatError("empty edge-list text")
    header = lines[0][1]
    try:
        n, m = map(int, header.split())
    except ValueError:
        raise GraphFormatError(f"malformed header line: {header!r}") from None
    m = _integer("edge count", m, 0, GraphFormatError)
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for lineno, line in lines[1:]:
        try:
            i, j, w = line.split()
            edges.append((int(i) - 1, int(j) - 1, float(w)))
        except ValueError:
            raise GraphFormatError(f"malformed edge line {lineno}: {line!r}") from None
    return Graph(n=n, edges=tuple(edges))


def former_symmetric(g, upper, diag):
    """n x n CSR matrix with upper[k] at (i, j) and (j, i) for edge k =
    (i, j), and diag[i] at (i, i), as Graph built its adjacency (upper =
    the weights, diag = zeros) and Hessian slots (upper = 0..m-1, diag =
    m..m+n-1, read from .data) through SciPy's COO to CSR conversion."""
    ii, jj, _ = g.edge_arrays
    d = np.arange(g.n, dtype=np.intp)
    rows = np.concatenate([ii, jj, d])
    cols = np.concatenate([jj, ii, d])
    data = np.concatenate([upper, upper, diag])
    return sparse.coo_array((data, (rows, cols)), shape=(g.n, g.n)).tocsr()


def _former_boundary_tau(z, d, radius):
    a = float(d @ d)
    b = 2.0 * float(z @ d)
    c = float(z @ z) - radius * radius
    disc = max(b * b - 4.0 * a * c, 0.0)
    return (-b + np.sqrt(disc)) / (2.0 * a)


def former_steihaug_cg(grad, hess, radius):
    """The package's former truncated CG: one run at one radius that
    returns the step, with the exits written inline."""
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
            return z + _former_boundary_tau(z, d, radius) * d
        alpha = rr / curv
        z_next = z + alpha * d
        if np.linalg.norm(z_next) >= radius:
            return z + _former_boundary_tau(z, d, radius) * d
        r = r + alpha * hd
        rr_next = float(r @ r)
        if np.sqrt(rr_next) < tol:
            return z_next
        d = -r + (rr_next / rr) * d
        z = z_next
        rr = rr_next
    return z


def hessian_every_iteration_bmz(g, theta0):
    """bmz_minimize as it was with its default settings: the Hessian is
    assembled at the top of every iteration, also after a rejected step,
    where the point has not moved, and CG runs afresh at every radius.
    Returns (theta, energy, iters)."""
    theta = wrap_angles(_angles(theta0, g.n))
    f = cost(g, theta)
    grad = cost_gradient(g, theta)
    radius = 1.0
    iters = 0
    for _ in range(500):
        if float(np.max(np.abs(grad))) <= 1e-8:
            break
        iters += 1
        hess = cost_hessian(g, theta)
        p = former_steihaug_cg(grad, hess, radius)
        pred = -(float(grad @ p) + 0.5 * float(p @ (hess @ p)))
        theta_trial = theta + p
        f_trial = cost(g, theta_trial)
        actual = f - f_trial
        ratio = actual / pred if pred > 0.0 else -np.inf
        if ratio < 0.25:
            radius *= 0.25
        elif ratio > 0.75 and np.linalg.norm(p) >= 0.99 * radius:
            radius = min(2.0 * radius, 10.0)
        if actual > 0.0:
            theta = theta_trial
            f = f_trial
            grad = cost_gradient(g, theta)
        if radius < 1e-13:
            break
    theta = wrap_angles(theta)
    return theta, cost(g, theta), iters
