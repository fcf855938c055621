"""Brute-force matrix-group oracles and formula cross-checks."""

import itertools

import numpy as np
import pytest

from e1forge.gf2k import central_scalars, field_for, make_field
from e1forge.oracle import (
    OracleError,
    batch_charpoly,
    batch_matmul,
    brute_scan,
    charpoly_buckets,
    conjugation0_check,
    enumerate_gl,
    enumerate_gu,
    mat_identity,
    mat_inv,
    mat_mul,
    mult_table,
    odd_order_mask,
    quotient_pgl,
    unitary_mask,
    verify_sweep,
)


def rows_of(*mats):
    return np.array(mats, dtype=np.uint8)


def test_mat_arithmetic_roundtrip():
    fld = make_field(2, 1)
    m = (2, 1, 0, 0, 1, 1, 0, 0, 3)
    inv = mat_inv(fld, m, 3)
    assert mat_mul(fld, m, inv, 3) == mat_identity(3)
    assert mat_mul(fld, m, mat_identity(3), 3) == m


@pytest.mark.parametrize("d,q", [(2, 4), (3, 2)])
def test_batch_matmul_matches_scalar_products(d, q):
    # the scalar mat_mul is the slow reference; a one-row operand on either
    # side is broadcast against every row of the other
    g = enumerate_gl(d, q)
    mats = list(g.rows())
    s = mats[len(mats) // 2]
    assert batch_matmul(g.field, g.elems, rows_of(s), d).tolist() == [
        list(mat_mul(g.field, x, s, d)) for x in mats
    ]
    assert batch_matmul(g.field, rows_of(s), g.elems, d).tolist() == [
        list(mat_mul(g.field, s, x, d)) for x in mats
    ]
    rev = g.elems[::-1]
    assert batch_matmul(g.field, g.elems, rev, d).tolist() == [
        list(mat_mul(g.field, x, y, d)) for x, y in zip(mats, reversed(mats))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_mult_table_matches_bit_serial(n):
    # every field mult_table supports, against the scalar bit-serial reference
    fld = make_field(n)
    table = mult_table(fld)
    assert table.dtype == np.uint8
    assert table.tolist() == [
        [fld._mul_bits(a, b) for b in fld.elements()] for a in fld.elements()
    ]


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
    assert not unitary_mask(u.field, rows_of((2, 0, 0, 1)), 2, 2)[0]
    assert not u.contains((2, 0, 0, 1))


def test_gu_elements_preserve_form():
    for d, q in [(2, 4), (3, 2)]:
        g = enumerate_gu(d, q)
        assert unitary_mask(g.field, g.elems, d, q).all()
        # the same form check by scalar products: M^T J M^(q) = J
        j = tuple(1 if a + b == d - 1 else 0 for a in range(d) for b in range(d))
        for m in itertools.islice(g.rows(), 0, None, 7):
            mt = tuple(m[b * d + a] for a in range(d) for b in range(d))
            mq = tuple(g.field.pow(x, q) for x in m)
            assert mat_mul(g.field, mat_mul(g.field, mt, j, d), mq, d) == j


def test_quotient_orders():
    assert quotient_pgl(enumerate_gl(2, 4)).order == 60
    assert quotient_pgl(enumerate_gu(3, 2)).order == 216


def test_unitary_enumeration_matches_formula_budget_guard():
    with pytest.raises(OracleError):
        enumerate_gu(3, 4, budget=100)


def test_brute_scan_identity():
    g = enumerate_gl(2, 4)
    scan = brute_scan(g, mat_identity(2))
    assert scan.centralizer == g.order
    assert scan.projective_centralizer == g.order // len(g.scalars)
    assert scan.real and scan.projective_real
    with pytest.raises(OracleError):
        brute_scan(g, (1, 1, 1, 1))  # singular, so not a member


def test_brute_realness_symmetry():
    g = enumerate_gl(2, 2)
    for m in g.rows():
        inv = mat_inv(g.field, m, 2)
        assert brute_scan(g, m).real == brute_scan(g, inv).real


@pytest.mark.parametrize("kind,q", [("GL", 2), ("GL", 4), ("GU", 2)])
def test_brute_scan_matches_scalar_reference(kind, q):
    # the four answers straight from their definitions, with scalar products
    g = enumerate_gl(2, q) if kind == "GL" else enumerate_gu(2, q)
    mats = list(g.rows())
    fld = g.field

    def conjugators(s, t):
        return sum(mat_mul(fld, x, s, 2) == mat_mul(fld, t, x, 2) for x in mats)

    for s in mats:
        sinv = mat_inv(fld, s, 2)
        scaled = [tuple(fld.mul(c, a) for a in s) for c in g.scalars]
        scaled_inv = [tuple(fld.mul(c, a) for a in sinv) for c in g.scalars]
        scan = brute_scan(g, s)
        assert scan.centralizer == conjugators(s, s)
        assert scan.real == (conjugators(s, sinv) > 0)
        assert scan.projective_centralizer * len(g.scalars) == sum(
            conjugators(s, t) for t in scaled
        )
        assert scan.projective_real == any(conjugators(s, t) for t in scaled_inv)


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
    cp = batch_charpoly(fld, rows_of((2, 1, 3, 1)), 2)
    # trace and determinant read straight off the matrix
    trace = fld.add(2, 1)
    det = fld.add(fld.mul(2, 1), fld.mul(1, 3))
    assert cp.tolist() == [[det, trace]]


def leibniz_det(fld, m, d):
    """det as the sum over permutations (no signs in characteristic 2)."""
    det = 0
    for perm in itertools.permutations(range(d)):
        term = 1
        for i, j in enumerate(perm):
            term = fld.mul(term, m[i * d + j])
        det ^= term
    return det


@pytest.mark.parametrize("d,q", [(3, 2), (2, 4)])
def test_charpoly_on_every_element(d, q):
    g = enumerate_gl(d, q)
    coeffs = batch_charpoly(g.field, g.elems, d)
    for m, c in zip(g.rows(), coeffs.tolist()):
        assert c[d - 1] == np.bitwise_xor.reduce(m[:: d + 1])  # the trace
        assert c[0] == leibniz_det(g.field, m, d)
    # Cayley-Hamilton: M^d + c_{d-1} M^{d-1} + ... + c_0 I = 0
    table = mult_table(g.field)
    power = np.tile(rows_of(mat_identity(d)), (g.order, 1))
    total = np.zeros_like(g.elems)
    for k in range(d):
        total ^= table[coeffs[:, k : k + 1], power]
        power = batch_matmul(g.field, power, g.elems, d)
    assert not (total ^ power).any()


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
