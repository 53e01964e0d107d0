"""B-spline workspace shared by the mean and covariance smoothers.

A workspace bundles a clamped B-spline basis on a fixed domain together
with the matrices every later stage needs: the second-order difference
penalty, the two tensor-product penalties, and the Gram matrix of the
basis and its symmetric square roots.

Times are mapped affinely onto [0, 1] before basis evaluation; the Gram
matrix is expressed in original time units so inner products, eigenvalues
and scores keep the units of the data.

Each workspace holds one basis evaluator, a numpy Cox-de Boor recursion
built once from the unit knots. The design matrices of all stages and the
Gram quadrature go through it. It follows the operation order of the
recursion scipy's ``BSpline`` evaluates, so its values equal
``BSpline.design_matrix(u, knots, order - 1).toarray()`` bit for bit; a
test pins that equality, and funcov itself does not import
``scipy.interpolate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._linalg import sym_sqrt_pair
from .errors import DomainError, FuncovError


def diff_matrix(c: int) -> np.ndarray:
    """Second-order difference matrix of shape (c - 2, c).

    Each row is the stencil (1, -2, 1), so affine coefficient sequences
    are annihilated exactly.
    """
    if c < 3:
        raise FuncovError(f"difference matrix needs at least 3 coefficients, got {c}")
    D = np.zeros((c - 2, c))
    i = np.arange(c - 2)
    D[i, i] = 1.0
    D[i, i + 1] = -2.0
    D[i, i + 2] = 1.0
    return D


@dataclass(frozen=True)
class SplineWorkspace:
    """Immutable bundle of basis and penalty matrices.

    Attributes
    ----------
    domain : (float, float)
        Closed time interval the basis lives on.
    order : int
        Spline order (degree + 1); 4 gives cubic splines.
    n_interior : int
        Number of equally spaced interior knots.
    c : int
        Number of basis functions, ``n_interior + order``.
    knots : ndarray
        Full clamped knot vector in original time units.
    D : ndarray
        Second-order difference matrix, shape (c - 2, c).
    P1, P2 : ndarray
        Tensor-product roughness penalties ``I (x) D'D`` and ``D'D (x) I``
        acting on the column-major vectorization of a coefficient matrix.
    G : ndarray
        Gram matrix of the basis over the domain.
    G_half, G_inv_half : ndarray
        Symmetric square root of G and its inverse.

    The basis evaluator on [0, 1] is built once, by :func:`build_workspace`,
    from the unit knots.
    """

    domain: tuple
    order: int
    n_interior: int
    c: int
    knots: np.ndarray
    D: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    G: np.ndarray
    G_half: np.ndarray
    G_inv_half: np.ndarray
    _unit_knots: np.ndarray = field(repr=False)
    _basis: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)


def _unit_basis(unit_knots: np.ndarray, order: int, c: int):
    """All c basis functions on [0, 1]: a function from unit times ``u``,
    shape (n,), to the (n, c) matrix of their values.

    Point ``u`` lies in the last interval ``ell`` in ``[k, c - 1]`` with
    ``knots[ell] <= u``, so the right end of [0, 1] belongs to the last
    interval. Its k + 1 nonzero values come from the Cox-de Boor recursion
    in the operation order of scipy's ``_deBoor_D``: for level j = 1..k
    and n = 1..j, ``w = h[n-1] / (xb - xa)`` with ``xb = knots[ell + n]``
    and ``xa = knots[ell + n - j]``, then ``h[n-1] += w (xb - u)`` and
    ``h[n] = w (u - xa)``. Each level is vectorized over the points, which
    run along the last axis. Every ``xb - xa`` is positive, as
    ``knots[ell] < knots[ell + 1]``, and is taken once per interval.
    """
    k = order - 1
    ell = np.arange(k, c)
    # rows: the 2k knots ell - k + 1 .. ell + k around each interval, then
    # every level's differences xb - xa; columns: the intervals
    window = unit_knots[ell + np.arange(1 - k, k + 1)[:, None]]
    pairs = [(j, n) for j in range(1, order) for n in range(1, j + 1)]
    table = np.vstack([window, *(window[k - 1 + n] - window[k - 1 + n - j] for j, n in pairs)])
    interior = unit_knots[order:c]
    rows = np.arange(order)[:, None]

    def basis(u):
        i = np.searchsorted(interior, u, side="right")  # ell - k
        T = table.take(i, axis=1)
        knot_u, u_knot = T[: 2 * k] - u, u - T[: 2 * k]
        h = np.ones((1, u.size))
        s = 2 * k
        for j in range(1, order):
            w = h / T[s : s + j]
            h = np.zeros((j + 1, u.size))
            h[:j] = w * knot_u[k : k + j]  # xb - u
            h[1:] += w * u_knot[k - j : k]  # u - xa
            s += j
        B = np.zeros((u.size, c))
        B.reshape(-1)[i + np.arange(0, u.size * c, c) + rows] = h
        return B

    return basis


def _unit_gram(basis, unit_knots: np.ndarray, order: int, c: int) -> np.ndarray:
    # Gauss-Legendre per knot span, exact for products of two splines:
    # the integrand has degree 2*(order-1) on each span.
    n_nodes = math.ceil((2 * (order - 1) + 1) / 2) + 1
    nodes, weights = leggauss(n_nodes)
    G = np.zeros((c, c))
    breaks = np.unique(unit_knots)
    for left, right in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        x = mid + half * nodes
        Bx = basis(x)
        G += half * (Bx * weights[:, None]).T @ Bx
    return 0.5 * (G + G.T)


def build_workspace(domain, n_interior: int, order: int = 4) -> SplineWorkspace:
    """Construct a :class:`SplineWorkspace`.

    Parameters
    ----------
    domain : (float, float)
        Time interval (a, b) with a < b.
    n_interior : int
        Number of interior knots, at least 1. Interior knots are equally
        spaced; boundary knots are repeated ``order`` times (clamped).
    order : int
        Spline order, degree + 1.

    Returns
    -------
    SplineWorkspace
    """
    a, b = float(domain[0]), float(domain[1])
    if not np.isfinite(a) or not np.isfinite(b) or not b > a:
        raise FuncovError(f"degenerate domain ({a}, {b})")
    if n_interior < 1:
        raise FuncovError(f"need at least one interior knot, got {n_interior}")
    if order < 1:
        raise FuncovError(f"spline order must be >= 1, got {order}")
    c = n_interior + order
    if c < 3:
        raise FuncovError(
            f"basis too small for the difference penalty: c = {c} < 3"
        )
    interior = np.arange(1, n_interior + 1) / (n_interior + 1)
    unit_knots = np.concatenate([np.zeros(order), interior, np.ones(order)])
    D = diff_matrix(c)
    DtD = D.T @ D
    basis = _unit_basis(unit_knots, order, c)
    G = (b - a) * _unit_gram(basis, unit_knots, order, c)
    G_half, G_inv_half = sym_sqrt_pair(G)
    return SplineWorkspace(
        domain=(a, b),
        order=order,
        n_interior=n_interior,
        c=c,
        knots=a + (b - a) * unit_knots,
        D=D,
        P1=np.kron(np.eye(c), DtD),
        P2=np.kron(DtD, np.eye(c)),
        G=G,
        G_half=G_half,
        G_inv_half=G_inv_half,
        _unit_knots=unit_knots,
        _basis=basis,
    )


def eval_basis_matrix(ws: SplineWorkspace, times) -> np.ndarray:
    """Evaluate all basis functions at the given times.

    Returns the design matrix of shape (len(times), c). Times outside the
    workspace domain raise :class:`DomainError`. The values come from the
    workspace's evaluator at the unit times ``u`` (see :func:`_unit_basis`).
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.size == 0:
        return np.zeros((0, ws.c))
    a, b = ws.domain
    inside = (t >= a) & (t <= b)  # False at NaN
    if not inside.all():
        if not np.isfinite(t).all():
            raise DomainError("non-finite time values")
        bad = float(t[~inside][0])
        raise DomainError(f"time {bad!r} outside the fitted domain [{a}, {b}]")
    u = (t - a) / (b - a)
    return ws._basis(u.ravel()).reshape(*t.shape, ws.c)

