"""Brute-force matrix-group oracles and formula cross-checks."""

import numpy as np
import pytest

from e1forge.gf2k import central_scalars, field_for, make_field
from e1forge.oracle import (
    OracleError,
    brute_centralizer,
    brute_is_real,
    charpoly_buckets,
    conjugation0_check,
    enumerate_gl,
    enumerate_gu,
    is_unitary_matrix,
    mat_charpoly,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_order,
    odd_order_mask,
    quotient_pgl,
    verify_sweep,
)


def test_mat_arithmetic_roundtrip():
    fld = make_field(2, 1)
    m = (2, 1, 0, 0, 1, 1, 0, 0, 3)
    inv = mat_inv(fld, m, 3)
    assert mat_mul(fld, m, inv, 3) == mat_identity(3)
    assert mat_order(fld, mat_identity(3), 3) == 1


def test_enumerate_gl_orders():
    assert enumerate_gl(2, 2).order == 6
    assert enumerate_gl(2, 4).order == 180
    assert enumerate_gl(3, 2).order == 168


def test_enumerate_gu_orders_and_methods_agree():
    # enumerate_gu raises unless the closure from searched generators
    # matches the Hermitian-form filter exactly
    assert enumerate_gu(2, 2).order == 18
    assert enumerate_gu(2, 4).order == 300
    assert enumerate_gu(3, 2).order == 648


@pytest.mark.parametrize(
    "enum,q,epsilon",
    [(enumerate_gl, 2, 1), (enumerate_gl, 4, 1), (enumerate_gu, 2, -1), (enumerate_gu, 4, -1)],
)
def test_central_scalars_are_the_group_centre(enum, q, epsilon):
    g = enum(2, q)
    assert g.scalars == central_scalars(field_for(q, epsilon), q - epsilon)
    for c in g.scalars:
        assert g.contains((c, 0, 0, c))


def test_contains_by_binary_search():
    g = enumerate_gl(2, 4)
    assert all(g.contains(tuple(int(x) for x in row)) for row in g.elems)
    assert not g.contains((1, 1, 1, 1))  # singular
    assert not g.contains((1, 0, 0))  # wrong shape
    assert not g.contains((4, 0, 0, 1))  # encoding outside GF(4)
    u = enumerate_gu(2, 2)
    # diag(w, 1) is invertible over GF(4) but breaks the Hermitian form
    assert not is_unitary_matrix(u.field, (2, 0, 0, 1), 2, 2)
    assert not u.contains((2, 0, 0, 1))


def test_gu_elements_preserve_form():
    g = enumerate_gu(2, 4)
    for m in g.rows():
        assert is_unitary_matrix(g.field, tuple(int(x) for x in m), 2, 4)


def test_quotient_orders():
    assert quotient_pgl(enumerate_gl(2, 4)).order == 60
    assert quotient_pgl(enumerate_gu(3, 2)).order == 216


def test_unitary_enumeration_matches_formula_budget_guard():
    with pytest.raises(OracleError):
        enumerate_gu(3, 4, budget=100)


def test_brute_centralizer_identity():
    g = enumerate_gl(2, 4)
    assert brute_centralizer(g, mat_identity(2)) == g.order


def test_brute_realness_symmetry():
    g = enumerate_gl(2, 2)
    for m in g.rows():
        m = tuple(int(x) for x in m)
        inv = mat_inv(g.field, m, 2)
        assert brute_is_real(g, m) == brute_is_real(g, inv)


def test_odd_order_mask_counts():
    g = enumerate_gl(2, 2)
    mask = odd_order_mask(g)
    # |GL_2(2)| = 6 = S_3: identity + two 3-cycles have odd order
    assert int(np.count_nonzero(mask)) == 3


def test_charpoly_buckets_partition():
    g = enumerate_gl(2, 4)
    mask = odd_order_mask(g)
    buckets = charpoly_buckets(g, mask)
    assert sum(len(v) for v in buckets.values()) == int(np.count_nonzero(mask))


def test_charpoly_closed_forms():
    fld = make_field(2, 1)
    m = (2, 1, 3, 1)
    cp = mat_charpoly(fld, m, 2)
    # trace and determinant read straight off the matrix
    trace = fld.add(2, 1)
    det = fld.add(fld.mul(2, 1), fld.mul(1, 3))
    assert cp.coeffs == (det, trace)


def test_conjugation0_regular_torus():
    report = conjugation0_check(2, 4)
    assert report["ok"]
    with pytest.raises(OracleError):
        conjugation0_check(3, 2)  # needs q - 1 >= d distinct entries


@pytest.mark.parametrize("kind,d,q", [("GL", 2, 2), ("GL", 2, 4), ("GU", 2, 2)])
def test_verify_sweep_small(kind, d, q):
    report = verify_sweep(kind, d, q)
    assert report["ok"], report
    for check in report["checks"]:
        assert check["tested"] == check["passed"], check


def test_verify_sweep_counts_gl_3_2():
    report = verify_sweep("GL", 3, 2)
    assert report["ok"]
    assert report["order"] == 168
    # identity + 56 elements of order 3 + 48 of order 7
    assert report["odd_order_elements"] == 105
