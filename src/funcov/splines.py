"""B-spline workspace shared by the mean and covariance smoothers.

A workspace bundles a clamped B-spline basis on a fixed domain together
with the matrices every later stage needs: the second-order difference
penalty, the two tensor-product penalties, and the Gram matrix of the
basis and its symmetric square roots.

Times are mapped affinely onto [0, 1] before basis evaluation; the Gram
matrix is expressed in original time units so inner products, eigenvalues
and scores keep the units of the data.

Each workspace builds one basis evaluator, a :class:`BSpline` whose
coefficients are the identity, so column j of its value is basis function
j. The design matrices of all stages go through it, and the Gram
quadrature uses an identical one. Its values are bit-identical to
``BSpline.design_matrix(u, knots, order - 1).toarray()``: each entry is one
de Boor value times 1.0 plus exact zeros, without the sparse matrix the
design-matrix route builds and densifies on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BSpline

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

    The basis evaluator on [0, 1] is built once, from the unit knots, when
    the workspace is constructed; it is not a constructor argument.
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
    _basis: BSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_basis", _unit_basis(self._unit_knots, self.order, self.c))


def _unit_basis(unit_knots: np.ndarray, order: int, c: int) -> BSpline:
    """All c basis functions on [0, 1] as one vector-valued spline."""
    return BSpline(unit_knots, np.eye(c), order - 1, extrapolate=False)


def _unit_gram(basis: BSpline) -> np.ndarray:
    # Gauss-Legendre per knot span, exact for products of two splines:
    # the integrand has degree 2*(order-1) on each span.
    n_nodes = math.ceil((2 * basis.k + 1) / 2) + 1
    nodes, weights = leggauss(n_nodes)
    c = basis.c.shape[1]
    G = np.zeros((c, c))
    breaks = np.unique(basis.t)
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
    G = (b - a) * _unit_gram(_unit_basis(unit_knots, order, c))
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
    )


def eval_basis_matrix(ws: SplineWorkspace, times) -> np.ndarray:
    """Evaluate all basis functions at the given times.

    Returns the design matrix of shape (len(times), c). Times outside the
    workspace domain raise :class:`DomainError`. The values come from the
    workspace's cached evaluator and are bit-identical to
    ``BSpline.design_matrix(u, ws._unit_knots, ws.order - 1).toarray()``
    at the unit times ``u``.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.size == 0:
        return np.zeros((0, ws.c))
    if not np.all(np.isfinite(t)):
        raise DomainError("non-finite time values")
    a, b = ws.domain
    if t.min() < a or t.max() > b:
        bad = float(t[(t < a) | (t > b)][0])
        raise DomainError(f"time {bad!r} outside the fitted domain [{a}, {b}]")
    u = (t - a) / (b - a)
    return ws._basis(u)

