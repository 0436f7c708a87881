"""Output checks that the benchmark runs on every solve.

Each check recomputes what it needs from the graph's edge triples with
plain numpy and calls no rotorcut code, so a fault in the package cannot
hide itself by being checked with its own arithmetic. A check raises
CheckFailed with a message naming the property that does not hold.
"""

from __future__ import annotations

import numpy as np

# the bound the acceptance suite puts on BMZ's final gradient
STATIONARY_TOL = 1e-6


class CheckFailed(Exception):
    """A solve's output violates a property it must have."""


def edge_table(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, w) arrays from an iterable of (i, j, w) triples."""
    rows = list(edges)
    if not rows:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    i, j, w = zip(*rows)
    return np.asarray(i, dtype=int), np.asarray(j, dtype=int), np.asarray(w, dtype=float)


def _tol(w: np.ndarray) -> float:
    # sums of up to ~10^5 terms of size |w|: allow rounding, nothing more
    return 1e-9 * max(1.0, float(np.abs(w).sum()))


def rotor_energy(table, theta) -> float:
    i, j, w = table
    theta = np.asarray(theta, dtype=float)
    return float(np.sum(w * np.cos(theta[i] - theta[j])))


def check_assignment(x, n: int) -> None:
    x = np.asarray(x)
    if x.shape != (n,):
        raise CheckFailed(f"assignment has shape {x.shape}, expected ({n},)")
    if not np.all((x == 1) | (x == -1)):
        raise CheckFailed("assignment entries are not all +1 or -1")


def check_cut_value(table, x, cut: float) -> None:
    """The reported cut equals the weight of edges whose ends differ."""
    i, j, w = table
    x = np.asarray(x)
    direct = float(w[x[i] != x[j]].sum())
    if abs(direct - cut) > _tol(w):
        raise CheckFailed(f"reported cut {cut!r} but the edges sum to {direct!r}")


def check_cut_above_average(table, theta, cut: float) -> None:
    """cut >= sum w_ij d_ij / pi, with d_ij in [0, pi] the angular distance.

    A uniformly random split line separates i and j with probability
    d_ij / pi, and Procedure-Cut keeps the best of every distinct split, so
    its cut is at least that average.
    """
    i, j, w = table
    theta = np.asarray(theta, dtype=float)
    gap = np.mod(theta[i] - theta[j], 2.0 * np.pi)
    dist = np.minimum(gap, 2.0 * np.pi - gap)
    average = float(np.sum(w * dist) / np.pi)
    if cut < average - _tol(w):
        raise CheckFailed(f"cut {cut!r} is below the split average {average!r}")


def check_energy(table, theta, energy: float) -> None:
    """The reported energy equals sum w_ij cos(t_i - t_j) at the returned angles."""
    direct = rotor_energy(table, theta)
    if not abs(direct - energy) <= _tol(table[2]):
        raise CheckFailed(f"reported energy {energy!r} but the angles give {direct!r}")


def check_trace(e_mean, accept_rate, residual, min_e_loc, best_energy: float) -> None:
    """Trace arrays are finite, acceptance rates lie in [0, 1], and the best
    energy is the lowest sampled local energy."""
    for name, arr in (
        ("e_mean", e_mean), ("accept_rate", accept_rate),
        ("residual", residual), ("min_e_loc", min_e_loc),
    ):
        arr = np.asarray(arr, dtype=float)
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise CheckFailed(f"trace column {name} is empty or not finite")
    rates = np.asarray(accept_rate, dtype=float)
    if np.any(rates < 0.0) or np.any(rates > 1.0):
        raise CheckFailed("acceptance rate outside [0, 1]")
    lowest = float(np.min(min_e_loc))
    if best_energy != lowest:
        raise CheckFailed(f"best_energy {best_energy!r} != min(min_e_loc) {lowest!r}")


def check_at_most_optimum(cut: float, optimum: float) -> None:
    if cut > optimum + 1e-9 * max(1.0, abs(optimum)):
        raise CheckFailed(f"cut {cut!r} exceeds the known optimum {optimum!r}")


def check_descent(table, theta0, energy: float) -> None:
    """The minimizer ends no higher than where it started."""
    start = rotor_energy(table, theta0)
    if energy > start + _tol(table[2]):
        raise CheckFailed(f"energy rose from {start!r} to {energy!r}")


def check_stationary(table, n: int, theta, tol: float = STATIONARY_TOL) -> None:
    """||grad||_inf <= tol, with d/dt_k = -sum_l w_kl sin(t_k - t_l)."""
    i, j, w = table
    theta = np.asarray(theta, dtype=float)
    s = w * np.sin(theta[i] - theta[j])
    grad = np.bincount(j, weights=s, minlength=n) - np.bincount(i, weights=s, minlength=n)
    worst = float(np.max(np.abs(grad)))
    if not worst <= tol:
        raise CheckFailed(f"final gradient inf-norm {worst:.3e} > {tol:g}")
