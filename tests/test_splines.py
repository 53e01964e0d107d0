"""Basis workspace: knots, basis evaluation, Gram, penalties."""

import numpy as np
import pytest

from funcov import DomainError, FuncovError, build_workspace
from funcov.splines import diff_matrix, eval_basis_matrix

import oracles
from conftest import basis_at


def test_dimension_cubic_nine_interior():
    ws = build_workspace((0.0, 1.0), 9, 4)
    assert ws.c == 13
    assert ws.G.shape == (13, 13)
    assert ws.D.shape == (11, 13)
    assert ws.knots.shape == (13 + 4,)


def test_knots_clamped_equally_spaced():
    ws = build_workspace((2.0, 6.0), 3, 4)
    # 4-fold boundary knots, interior breaks equally spaced on [2, 6]
    assert np.all(ws.knots[:4] == 2.0)
    assert np.all(ws.knots[-4:] == 6.0)
    interior = ws.knots[4:-4]
    np.testing.assert_allclose(interior, [3.0, 4.0, 5.0], atol=1e-14)


def test_basis_row_left_boundary():
    ws = build_workspace((0.0, 1.0), 9, 4)
    row = basis_at(ws, 0.0)
    expected = np.zeros(13)
    expected[0] = 1.0
    np.testing.assert_array_equal(row, expected)


def test_basis_row_right_boundary():
    ws = build_workspace((0.0, 1.0), 9, 4)
    row = basis_at(ws, 1.0)
    assert row[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(row[:-1] == pytest.approx(0.0, abs=1e-12))


def test_basis_value_frozen_point():
    # Cubic basis with 9 interior knots on [0, 1], evaluated at t = 0.37.
    ws = build_workspace((0.0, 1.0), 9, 4)
    row = basis_at(ws, 0.37)
    nz = np.nonzero(row)[0]
    np.testing.assert_array_equal(nz, [3, 4, 5, 6])
    frozen = [
        0.004500000000000009,
        0.3481666666666667,
        0.5901666666666666,
        0.057166666666666664,
    ]
    np.testing.assert_allclose(row[nz], frozen, rtol=0, atol=1e-12)


def test_basis_matches_recursion_oracle():
    ws = build_workspace((0.0, 1.0), 9, 4)
    rng = np.random.default_rng(42)
    ts = np.concatenate([[0.0, 1.0, 0.37], rng.random(40)])
    B = eval_basis_matrix(ws, ts)
    for i, t in enumerate(ts):
        row = oracles.basis_row(ws.knots, ws.order, ws.c, t)
        np.testing.assert_allclose(B[i], row, rtol=0, atol=1e-12)


@pytest.mark.parametrize("domain", [(0.0, 1.0), (-2.5, 7.0)])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_basis_and_gram_equal_the_design_matrix_path(order, domain):
    rng = np.random.default_rng(order)
    a, b = domain
    for n_interior in (1, 2, 9, 20):
        if n_interior + order < 3:
            continue
        ws = build_workspace(domain, n_interior, order)
        knots = np.unique(ws.knots)
        ts = np.concatenate([
            knots,
            np.nextafter(knots[1:], -np.inf),
            np.nextafter(knots[:-1], np.inf),
            np.linspace(a, b, 101),
            np.linspace(a, b, 250),
            a + (b - a) * rng.random(20_000),
        ])
        oracle = oracles.design_matrix(ws._unit_knots, order, (ts - a) / (b - a))
        np.testing.assert_array_equal(eval_basis_matrix(ws, ts), oracle)
        G = oracles.design_matrix_gram(domain, ws._unit_knots, order, ws.c)
        np.testing.assert_array_equal(ws.G, G)


def test_partition_of_unity_and_support():
    for order in (2, 3, 4, 5):
        ws = build_workspace((0.0, 1.0), 6, order)
        rng = np.random.default_rng(order)
        ts = np.concatenate([[0.0, 1.0], rng.random(200)])
        B = eval_basis_matrix(ws, ts)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(B >= -1e-15)
        # at most `order` bases are active at any point
        assert np.max((B > 0).sum(axis=1)) <= order


def test_gram_order_one_is_diagonal():
    # Piecewise-constant basis: G is diag of the knot spacings.
    ws = build_workspace((0.0, 1.0), 4, 1)
    np.testing.assert_allclose(ws.G, 0.2 * np.eye(5), rtol=0, atol=1e-15)


def test_gram_matches_quadrature_oracle():
    ws = build_workspace((0.0, 1.0), 9, 4)
    G64 = oracles.gram_gl64((0.0, 1.0), ws.knots, ws.order, ws.c)
    np.testing.assert_allclose(ws.G, G64, rtol=0, atol=1e-12)
    # frozen diagnostics for this workspace
    assert ws.G[0, 0] == pytest.approx(1.0 / 70.0, abs=1e-15)
    assert ws.G[6, 6] == pytest.approx(0.04793650793650791, abs=1e-14)
    assert np.trace(ws.G) == pytest.approx(0.47376984126984123, abs=1e-13)


def test_gram_rescales_with_domain_length():
    ws_unit = build_workspace((0.0, 1.0), 5, 4)
    ws_wide = build_workspace((2.0, 6.0), 5, 4)
    np.testing.assert_allclose(ws_wide.G, 4.0 * ws_unit.G, rtol=1e-13)


def test_gram_spd_across_supported_sizes():
    for order in (2, 3, 4, 5):
        for n_interior in range(1, 9):
            if n_interior + order < 3:
                continue
            ws = build_workspace((0.0, 1.0), n_interior, order)
            np.testing.assert_array_equal(ws.G, ws.G.T)
            assert np.linalg.eigvalsh(ws.G).min() > 0


def test_gram_roots_invert_each_other():
    ws = build_workspace((0.0, 1.0), 9, 4)
    c = ws.c
    np.testing.assert_allclose(ws.G_half @ ws.G_half, ws.G, atol=1e-12)
    np.testing.assert_allclose(ws.G_half @ ws.G_inv_half, np.eye(c), atol=1e-10)


def test_diff_matrix_rows_c4():
    D = diff_matrix(4)
    np.testing.assert_array_equal(D, [[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]])


def test_diff_matrix_annihilates_affine_sequences():
    rng = np.random.default_rng(3)
    for c in (3, 7, 13):
        D = diff_matrix(c)
        u, v = rng.standard_normal(2)
        a = u + v * np.arange(c)
        np.testing.assert_allclose(D @ a, 0.0, atol=1e-12)


def test_diff_matrix_on_squares():
    D = diff_matrix(5)
    a = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    np.testing.assert_array_equal(D @ a, [2.0, 2.0, 2.0])


def test_diff_matrix_rejects_tiny():
    with pytest.raises(FuncovError):
        diff_matrix(2)


def test_vec_identity():
    # b(s)^T Theta b(t) == (b(t) kron b(s)) . vec_F(Theta)
    ws = build_workspace((0.0, 1.0), 5, 4)
    rng = np.random.default_rng(7)
    theta = rng.standard_normal((ws.c, ws.c))
    for _ in range(20):
        s, t = rng.random(2)
        bs, bt = basis_at(ws, s), basis_at(ws, t)
        lhs = bs @ theta @ bt
        rhs = np.kron(bt, bs) @ theta.ravel(order="F")
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_penalty_identities():
    # theta^T P1 theta == ||D Theta||_F^2 and theta^T P2 theta == ||D Theta^T||_F^2
    ws = build_workspace((0.0, 1.0), 4, 4)
    rng = np.random.default_rng(11)
    Theta = rng.standard_normal((ws.c, ws.c))
    theta = Theta.ravel(order="F")
    assert theta @ ws.P1 @ theta == pytest.approx(np.sum((ws.D @ Theta) ** 2), abs=1e-10)
    assert theta @ ws.P2 @ theta == pytest.approx(np.sum((ws.D @ Theta.T) ** 2), abs=1e-10)


def test_penalty_kron_structure():
    ws = build_workspace((0.0, 1.0), 3, 4)
    DtD = ws.D.T @ ws.D
    np.testing.assert_array_equal(ws.P1, np.kron(np.eye(ws.c), DtD))
    np.testing.assert_array_equal(ws.P2, np.kron(DtD, np.eye(ws.c)))


def test_eval_empty_times():
    ws = build_workspace((0.0, 1.0), 5, 4)
    B = eval_basis_matrix(ws, [])
    assert B.shape == (0, ws.c)


def test_eval_out_of_domain_raises():
    ws = build_workspace((0.0, 1.0), 5, 4)
    with pytest.raises(DomainError):
        eval_basis_matrix(ws, [0.5, 1.0 + 1e-9])
    with pytest.raises(DomainError):
        basis_at(ws, -0.1)
    with pytest.raises(DomainError):
        basis_at(ws, np.nan)


def test_out_of_domain_message_names_a_plain_float():
    ws = build_workspace((0.0, 1.0), 5, 4)
    with pytest.raises(DomainError) as exc:
        eval_basis_matrix(ws, np.array([0.5, 1.5, -2.0]))
    assert str(exc.value) == "time 1.5 outside the fitted domain [0.0, 1.0]"


def test_build_workspace_validation():
    with pytest.raises(FuncovError):
        build_workspace((0.0, 0.0), 5, 4)
    with pytest.raises(FuncovError):
        build_workspace((1.0, 0.0), 5, 4)
    with pytest.raises(FuncovError):
        build_workspace((0.0, 1.0), 5, 0)
    with pytest.raises(FuncovError):
        build_workspace((0.0, 1.0), -1, 4)
    with pytest.raises(FuncovError):
        build_workspace((0.0, 1.0), 1, 1)  # c = 2 < 3


def test_workspace_is_frozen():
    ws = build_workspace((0.0, 1.0), 5, 4)
    with pytest.raises(Exception):
        ws.c = 99
