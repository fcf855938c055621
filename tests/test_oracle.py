"""Brute-force matrix-group oracles and formula cross-checks.

The numpy construction and scan are checked against the scalar code they
replaced, kept below as references: row extension over Python sets, a
one-product-at-a-time closure, the closure generators as entry tuples, and
a scan that compares x s with c t x once per central scalar c.  GU's row
extension under its Hermitian form is checked against GL_d(q^2) filtered by
the whole-matrix form test `oracle_reference.unitary_mask`.  The scan and
the odd-order powers on row codes are checked against the same
computations on whole-matrix entry products, in `oracle_reference`.  The
oracle holds matrices as row codes; the tests turn them into flat entry
tuples with `as_tuples` and back with `as_codes`.
"""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracle_reference as reference
import pytest

from e1forge import semisimple as ss
from e1forge.autos import canonical_torus_rep, unitary_diagonal
from e1forge.bounds import group_order
from e1forge.cli import main as cli_main
from e1forge.gf2k import central_scalars, field_for, make_field
from e1forge.oracle import (
    OracleConfigError,
    OracleError,
    _closure,
    _code,
    _enumerate_invertible,
    _enumerate_unitary,
    _freeze,
    _gu_generators,
    _times,
    batch_charpoly,
    brute_scan,
    charpoly_buckets,
    code_tables,
    conjugation0_check,
    enumerate_gl,
    enumerate_gu,
    mult_table,
    odd_order_mask,
    verify_sweep,
)
from e1forge.polyfield import ENUM_BUDGET, enumerate_charpolys
from gf2k_reference import mul_bits
from scalar_matrix import mat_identity, mat_inv, mat_mul

GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_verify"
SRC = Path(__file__).resolve().parents[1] / "src"


def rows_of(*mats):
    return np.array(mats, dtype=np.uint8)


def as_tuples(field, d, codes):
    """Row codes (N, d) -> flat entry tuples."""
    digits = code_tables(field, d).digits[codes]
    return [tuple(m) for m in digits.reshape(len(codes), -1).tolist()]


def as_codes(field, d, mats):
    """Flat entry tuples -> (N, d) row codes."""
    m = np.array(mats, dtype=np.uint8).reshape(-1, d, d)
    return _code(m, code_tables(field, d).shifts)


def group_rows(g):
    return as_tuples(g.field, g.d, g.codes)


def test_mat_arithmetic_roundtrip():
    fld = make_field(2, 1)
    m = (2, 1, 0, 0, 1, 1, 0, 0, 3)
    inv = mat_inv(fld, m, 3)
    assert mat_mul(fld, m, inv, 3) == mat_identity(3)
    assert mat_mul(fld, m, mat_identity(3), 3) == m


@pytest.mark.parametrize("d,q", [(2, 4), (3, 2)])
def test_times_matches_scalar_products(d, q):
    # the scalar mat_mul is the slow reference; a one-element column on
    # either side is broadcast against every element of the other
    g = enumerate_gl(d, q)
    tables = code_tables(g.field, d)
    mats = group_rows(g)
    s = mats[len(mats) // 2]
    s_cols = as_codes(g.field, d, [s]).T

    def product(a, b):
        return as_tuples(g.field, d, np.stack(_times(tables, a, b), axis=1))

    assert product(g.codes.T, s_cols) == [mat_mul(g.field, x, s, d) for x in mats]
    assert product(s_cols, g.codes.T) == [mat_mul(g.field, s, x, d) for x in mats]
    pairwise = [mat_mul(g.field, x, y, d) for x, y in zip(mats, reversed(mats))]
    assert product(g.codes.T, g.codes[::-1].T) == pairwise
    # the entry kernel the row-code paths are compared with, on the same pairs
    elems = reference.entries(g)
    by_entries = reference.batch_matmul(g.field, elems, elems[::-1], d)
    assert [tuple(m) for m in by_entries.tolist()] == pairwise


@pytest.mark.parametrize("n", range(1, 9))
def test_mult_table_matches_bit_serial(n):
    # every field mult_table supports, against the scalar bit-serial reference
    fld = make_field(n)
    table = mult_table(fld)
    assert table.dtype == np.uint8
    elements = range(fld.size)
    assert table.tolist() == [
        [mul_bits(fld.defining_poly, a, b) for b in elements] for a in elements
    ]


def test_enumerate_gl_orders():
    assert enumerate_gl(2, 2).order == 6
    assert enumerate_gl(2, 4).order == 180
    assert enumerate_gl(3, 2).order == 168


def test_enumerate_gu_orders_and_methods_agree():
    # enumerate_gu raises unless the closure from torus, J and sampled rows
    # matches the row extension under the Hermitian form exactly
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
    assert all(g.contains(m) for m in group_rows(g))
    assert not g.contains((1, 1, 1, 1))  # singular
    assert not g.contains((1, 0, 0))  # wrong shape
    assert not g.contains((4, 0, 0, 1))  # encoding outside GF(4)
    # GL_2(32) has codes past 255, so the search must compare the bytes of a
    # code most significant first
    big = enumerate_gl(2, 32)
    assert all(big.contains(m) for m in as_tuples(big.field, 2, big.codes[::50000]))
    assert not big.contains((1, 1, 1, 1))
    u = enumerate_gu(2, 2)
    # diag(w, 1) is invertible over GF(4) but breaks the Hermitian form
    diag = as_codes(u.field, 2, [(2, 0, 0, 1)])
    assert not reference.unitary_mask(u.field, diag, 2, 2)[0]
    assert not u.contains((2, 0, 0, 1))


def test_gu_elements_preserve_form():
    for d, q in [(2, 4), (3, 2)]:
        g = enumerate_gu(d, q)
        assert reference.unitary_mask(g.field, g.codes, d, q).all()
        # the same form check by scalar products: M^T J M^(q) = J
        j = tuple(1 if a + b == d - 1 else 0 for a in range(d) for b in range(d))
        for m in itertools.islice(group_rows(g), 0, None, 7):
            mt = tuple(m[b * d + a] for a in range(d) for b in range(d))
            mq = tuple(g.field.pow(x, q) for x in m)
            assert mat_mul(g.field, mat_mul(g.field, mt, j, d), mq, d) == j


def quotient_pgl(g):
    """G/Z as the sorted canonical torus representatives of the rows."""
    epsilon = 1 if g.kind == "GL" else -1
    reps = {canonical_torus_rep(m, g.q, epsilon) for m in group_rows(g)}
    codes = as_codes(g.field, g.d, sorted(reps))
    return _freeze("P" + g.kind, g.d, g.q, g.field, codes, (1,))


def test_quotient_orders():
    assert quotient_pgl(enumerate_gl(2, 4)).order == 60
    assert quotient_pgl(enumerate_gu(3, 2)).order == 216


def test_unitary_enumeration_matches_formula_budget_guard():
    with pytest.raises(OracleError):
        enumerate_gu(3, 4, budget=100)


@pytest.mark.parametrize("d,q", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)])
def test_row_extension_matches_the_form_filter(d, q):
    # GU_d(q) row by row under h against GL_d(q^2) filtered by the
    # whole-matrix form test: the same codes in the same order
    fld = field_for(q, -1)
    gl = _enumerate_invertible(fld, d, ENUM_BUDGET)
    filtered = gl[reference.unitary_mask(fld, gl, d, q)]
    assert len(filtered) == group_order("GU", d, q)
    assert np.array_equal(_enumerate_unitary(fld, d, q, ENUM_BUDGET), filtered)


def test_row_extension_charges_its_checks_to_the_budget():
    # GU_2(2): 18 elements, a 4^3-entry code table, 1 x 9 checks for row 0
    # (the isotropic codes) and 9 x 9 for row 1
    fld = field_for(2, -1)
    assert len(_enumerate_unitary(fld, 2, 2, 81)) == 18
    message = r"GU_2\(2\) row extension of 9 x 9 checks exceeds budget 80"
    with pytest.raises(OracleConfigError, match=message):
        _enumerate_unitary(fld, 2, 2, 80)
    with pytest.raises(OracleConfigError, match=message):
        enumerate_gu(2, 2, budget=80)


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
    for m in group_rows(g):
        inv = mat_inv(g.field, m, 2)
        assert brute_scan(g, m).real == brute_scan(g, inv).real


@pytest.mark.parametrize("kind,q", [("GL", 2), ("GL", 4), ("GU", 2)])
def test_brute_scan_matches_scalar_reference(kind, q):
    # the four answers straight from their definitions, with scalar products
    g = enumerate_gl(2, q) if kind == "GL" else enumerate_gu(2, q)
    mats = group_rows(g)
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
    trace = 2 ^ 1
    det = fld.mul(2, 1) ^ fld.mul(1, 3)
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


@pytest.mark.parametrize("d,q", [(3, 2), (2, 4), (4, 2)])
def test_charpoly_on_every_element(d, q):
    g = enumerate_gl(d, q)
    elems = reference.entries(g)
    coeffs = batch_charpoly(g.field, elems, d)
    for m, c in zip(group_rows(g), coeffs.tolist()):
        assert c[d - 1] == np.bitwise_xor.reduce(m[:: d + 1])  # the trace
        assert c[0] == leibniz_det(g.field, m, d)
    # Cayley-Hamilton: M^d + c_{d-1} M^{d-1} + ... + c_0 I = 0
    table = mult_table(g.field)
    power = np.tile(rows_of(mat_identity(d)), (g.order, 1))
    total = np.zeros_like(elems)
    for k in range(d):
        total ^= table[coeffs[:, k : k + 1], power]
        power = reference.batch_matmul(g.field, power, elems, d)
    assert not (total ^ power).any()


def golden_spec(path):
    kind, d, q = path.stem.split("_")
    return kind, int(d), int(q)


GOLDEN_GROUPS = [pytest.param(path, id=path.stem) for path in sorted(GOLDEN.glob("*.json"))]


@pytest.mark.parametrize("path", GOLDEN_GROUPS)
def test_charpoly_matches_the_closed_forms_on_every_element(path):
    # the hand-expanded reference for d <= 3; at d = 4 the row expansion and
    # principal minors of charpoly_keys_4, built from the same closed forms
    kind, d, q = golden_spec(path)
    g = (enumerate_gl if kind == "GL" else enumerate_gu)(d, q)
    elems = reference.entries(g)
    if g.d == 4:
        expected = charpoly_keys_4(g.field, elems)
    else:
        expected = reference.batch_charpoly(g.field, elems, g.d)
    assert np.array_equal(batch_charpoly(g.field, elems, g.d), expected)


@pytest.mark.parametrize("path", GOLDEN_GROUPS)
def test_golden_counts_match_the_census(path):
    # in characteristic 2 the odd-order elements are the semisimple ones:
    # one charpoly bucket per census class (q^d - q^(d-1) of them in GL,
    # q^d + q^(d-1) in GU), and the buckets fill the class equation,
    # sum |G|/|C(s)| over them
    report = json.loads(path.read_text())["report"]
    kind, d, q = golden_spec(path)
    epsilon = 1 if kind == "GL" else -1
    order = group_order(kind, d, q)
    stream = enumerate_charpolys(d, field_for(q, epsilon), unitary=epsilon == -1)
    classes = [ss.semisimple_class(epsilon, d, q, fac) for fac in stream]
    assert len(classes) == q**d - epsilon * q ** (d - 1)
    assert report["charpoly_classes"] == str(len(classes))
    elements = sum(order // ss.centralizer_shape(c).order for c in classes)
    assert report["odd_order_elements"] == str(elements)


def test_conjugation0_regular_torus():
    report = conjugation0_check(2, 4)
    assert report["ok"]
    with pytest.raises(OracleError):
        conjugation0_check(3, 2)  # needs q - 1 >= d distinct entries


def test_conjugation0_charges_its_code_table_to_the_budget():
    with pytest.raises(OracleConfigError, match=r"code table 16\^4 exceeds budget 1"):
        conjugation0_check(3, 16, budget=1)
    with pytest.raises(OracleConfigError, match="exceeds budget 63"):
        conjugation0_check(2, 4, budget=63)
    assert conjugation0_check(2, 4, budget=64)["ok"]


def test_verify_sweep_passes_its_budget_to_conjugation0(monkeypatch):
    budgets = []

    def spy(d, q, budget):
        budgets.append(budget)
        return conjugation0_check(d, q, budget)

    monkeypatch.setattr("e1forge.oracle.conjugation0_check", spy)
    assert verify_sweep("GL", 2, 4, budget=5_000)["ok"]
    assert budgets == [5_000]


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


# --- the scalar code the numpy paths replaced, kept as references -----------


def reference_enumerate_invertible(field, d):
    """All invertible d x d matrices: extend row by row outside the span."""
    size = field.size
    vectors = [tuple((v // size**i) % size for i in range(d)) for v in range(size**d)]
    out = []

    def extend(rows, span):
        if len(rows) == d - 1:
            flat = tuple(x for row in rows for x in row)
            out.extend(flat + v for v in vectors if v not in span)
            return
        for v in vectors:
            if v in span:
                continue
            new_span = set()
            for c in range(size):
                cv = tuple(field.mul(c, x) for x in v)
                for s in span:
                    new_span.add(tuple(a ^ b for a, b in zip(s, cv)))
            extend(rows + [v], new_span)

    extend([], {tuple([0] * d)})
    return out


def reference_gu_generators(d, q, rows, seed):
    """Torus diagonals, J, then min(6, |G|) of the enumerated rows, picked
    at the seeded sample of their indices."""
    field = field_for(q, -1)
    gens = []
    mids = [(m,) for m in central_scalars(field, q + 1)] if d % 2 else [()]
    for front in itertools.product(range(1, field.size), repeat=d // 2):
        for mid in mids:
            a = unitary_diagonal(field, q, front, mid)
            gens.append(tuple(a[i] if i == j else 0 for i in range(d) for j in range(d)))
    gens.append(tuple(1 if i + j == d - 1 else 0 for i in range(d) for j in range(d)))
    picks = random.Random(seed).sample(range(len(rows)), min(6, len(rows)))
    return gens + [rows[i] for i in picks]


def reference_closure(field, gens, d, budget):
    ident = mat_identity(d)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(field, m, g, d)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > budget:
                        raise OracleError("closure exceeded budget")
        frontier = nxt
    return seen


def reference_brute_scan(g, s):
    """(centralizer, real, projective centralizer, projective real): for
    each c in g.scalars, count the x with x s = c t x."""
    table = mult_table(g.field)
    elems, row = reference.entries(g), rows_of(s)
    xs = reference.batch_matmul(g.field, elems, row, g.d)
    (inverse,) = np.nonzero((xs == rows_of(mat_identity(g.d))).all(axis=1))
    as_bytes = np.dtype((np.void, g.d * g.d))  # one row, one comparison
    xs = xs.view(as_bytes).ravel()

    def conjugators(t):
        tx = reference.batch_matmul(g.field, t, elems, g.d)
        scaled = [table[c].take(tx).view(as_bytes).ravel() for c in g.scalars]
        return [int((xs == cx).sum()) for cx in scaled]

    commuting, inverting = conjugators(row), conjugators(elems[inverse])
    one = g.scalars.index(1)
    return (
        commuting[one],
        inverting[one] > 0,
        sum(commuting) // len(g.scalars),
        sum(inverting) > 0,
    )


# --- numpy paths against the references ------------------------------------


@pytest.mark.parametrize("d,size", [(2, 2), (2, 4), (2, 8), (3, 2), (4, 2), (2, 16)])
def test_enumerate_invertible_matches_reference(d, size):
    fld = make_field(size.bit_length() - 1)
    codes = _enumerate_invertible(fld, d, ENUM_BUDGET)
    assert codes.dtype == np.int32
    # the row extension comes out lexicographically sorted, without repeats
    reference = sorted(reference_enumerate_invertible(fld, d))
    assert as_tuples(fld, d, codes) == reference


@pytest.mark.parametrize("d,q", [(1, 2), (2, 2), (2, 4), (3, 2)])
def test_gu_generators_match_reference(d, q):
    # the seed picks the sampled rows, and only those
    fld = field_for(q, -1)
    codes = _enumerate_unitary(fld, d, q, ENUM_BUDGET)
    rows = as_tuples(fld, d, codes)
    samples = set()
    for seed in range(4):
        gens = as_tuples(fld, d, _gu_generators(fld, codes, d, q, seed))
        assert gens == reference_gu_generators(d, q, rows, seed)
        samples.add(tuple(gens[-min(6, len(rows)) :]))
    if d > 1:  # GU_1(2) has 3 elements, and each seed samples all of them
        assert len(samples) == 4


@pytest.mark.parametrize("d,q", [(2, 2), (2, 4), (3, 2)])
def test_closure_matches_reference(d, q):
    fld = field_for(q, -1)
    gens = _gu_generators(fld, _enumerate_unitary(fld, d, q, ENUM_BUDGET), d, q, 0)
    closed = _closure(fld, gens, d, ENUM_BUDGET)
    reference = reference_closure(fld, as_tuples(fld, d, gens), d, ENUM_BUDGET)
    assert as_tuples(fld, d, closed) == sorted(reference)


def test_closure_budget_is_exact():
    # like the scalar closure, raise exactly when the closure has more than
    # budget elements, however the frontier is cut into blocks
    fld = field_for(2, -1)
    gens = _gu_generators(fld, _enumerate_unitary(fld, 2, 2, ENUM_BUDGET), 2, 2, 0)
    assert len(_closure(fld, gens, 2, 18)) == 18
    for budget in (1, 5, 17):
        with pytest.raises(OracleError):
            _closure(fld, gens, 2, budget)
        with pytest.raises(OracleError):
            reference_closure(fld, as_tuples(fld, 2, gens), 2, budget)


@pytest.mark.parametrize("kind,q", [("GL", 8), ("GU", 4)])
def test_brute_scan_matches_per_scalar_reference(kind, q):
    # every element of GL_2(8) (|Z| = 7) and GU_2(4) (|Z| = 5)
    g = enumerate_gl(2, q) if kind == "GL" else enumerate_gu(2, q)
    for s in group_rows(g):
        scan = brute_scan(g, s)
        assert scan == reference.brute_scan(g, s)
        assert dataclasses.astuple(scan) == reference_brute_scan(g, s)


@pytest.mark.parametrize("kind,q", [("GL", 4), ("GU", 4)])
def test_brute_scan_keeps_ratios_outside_the_given_centre(kind, q):
    # brute_scan takes Z from g.scalars.  For the true centre a ratio c with
    # x s = c t x always lies in Z (c t is in G), so only a smaller Z shows
    # whether the lookup in Z is made: with Z = 1, x s = det(s) s^-1 x makes
    # s projectively real in G/Z only if it is real in G
    g = enumerate_gl(2, q) if kind == "GL" else enumerate_gu(2, q)
    trivial = dataclasses.replace(g, scalars=(1,))
    scans = [brute_scan(trivial, s) for s in group_rows(g)]
    assert scans == [reference.brute_scan(trivial, s) for s in group_rows(g)]
    assert [dataclasses.astuple(scan) for scan in scans] == [
        reference_brute_scan(trivial, s) for s in group_rows(g)
    ]
    assert all(scan.projective_real == scan.real for scan in scans)
    assert not all(scan.real for scan in scans)


@pytest.mark.parametrize("kind,d,q", [("GL", 2, 4), ("GL", 3, 2), ("GU", 2, 2), ("GU", 3, 2)])
def test_row_code_paths_match_batch_products_on_every_element(kind, d, q):
    g = enumerate_gl(d, q) if kind == "GL" else enumerate_gu(d, q)
    assert np.array_equal(odd_order_mask(g), reference.odd_order_mask(g))
    for s in group_rows(g):
        assert brute_scan(g, s) == reference.brute_scan(g, s)


def charpoly_keys_4(fld, m):
    """Charpoly coefficients c_0..c_3 of 4 x 4 rows from the reference closed
    forms for d <= 3: c_{4-k} is the sum of the principal k x k minors, and
    the determinant expands along row 0 (no signs in characteristic 2)."""
    t = mult_table(fld)

    def minor(rows, cols):
        sub = m.reshape(-1, 4, 4)[:, rows][:, :, cols].reshape(len(m), -1)
        return reference.batch_charpoly(fld, sub, len(rows))[:, 0]

    def principal(k):
        return np.bitwise_xor.reduce(
            [minor(list(c), list(c)) for c in itertools.combinations(range(4), k)]
        )

    det = np.bitwise_xor.reduce(
        [t[m[:, j], minor([1, 2, 3], [c for c in range(4) if c != j])] for j in range(4)]
    )
    return np.stack([det, principal(3), principal(2), principal(1)], axis=1)


def test_row_code_paths_match_batch_products_on_gl_4_2():
    # the buckets are keyed by the reference charpolys; the first, middle and
    # last element of each charpoly bucket stand for it
    g = enumerate_gl(4, 2)
    assert np.array_equal(odd_order_mask(g), reference.odd_order_mask(g))
    elems = reference.entries(g)
    keys = charpoly_keys_4(g.field, elems)
    _, first = np.unique(keys, axis=0, return_index=True)
    (scalar,) = np.nonzero((keys == [1, 0, 0, 0]).all(axis=1))  # x^4 + 1
    assert len(first) == 8 and len(scalar) > 1
    reps = set()
    for key in keys[first]:
        (bucket,) = np.nonzero((keys == key).all(axis=1))
        reps |= {bucket[0], bucket[len(bucket) // 2], bucket[-1]}
    for i in sorted(reps):
        s = tuple(int(x) for x in elems[i])
        assert brute_scan(g, s) == reference.brute_scan(g, s)


def test_row_code_table_is_charged_to_the_budget(capsys):
    # GL_1(4) has 3 elements, but the scaled-row table has 4^2 entries
    argv = ["oracle", "verify", "--group", "GL", "--d", "1", "--q", "4"]
    assert cli_main(argv + ["--budget", "16"]) == 0
    assert cli_main(argv + ["--budget", "15"]) == 2
    assert "code table 4^2 exceeds budget 15" in capsys.readouterr().err
    with pytest.raises(OracleConfigError, match=r"code table 4\^2 exceeds budget 15"):
        enumerate_gu(1, 2, budget=15)  # GF(4) again


# --- reports -------------------------------------------------------------------


GOLDEN_RUNS = [pytest.param(path, 0, id=path.stem) for path in sorted(GOLDEN.glob("*.json"))]
GOLDEN_RUNS += [
    pytest.param(path, seed, id=f"{path.stem}-seed{seed}")
    for path in sorted(GOLDEN.glob("GU_*.json"))
    for seed in (1, 7)
]


@pytest.mark.parametrize("path,seed", GOLDEN_RUNS)
def test_oracle_verify_report_is_byte_identical(path, seed, capsys):
    # stdout of `oracle verify --seed 0` as the scalar construction gave it;
    # GL_3(4) as the whole-matrix batch scan gave it; GL_2(16), GU_2(8) and
    # GU_4(2) as the row extensions gave them.  Another seed samples other
    # GU generators, which must close to the same group and report
    kind, d, q = path.stem.split("_")
    argv = ["oracle", "verify", "--group", kind, "--d", d, "--q", q, "--seed", str(seed)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


def test_oracle_verify_does_not_import_numpy_ma():
    # numpy.ma costs ~15 ms to import, paid by every fresh CLI call that
    # reaches np.unique's plain path
    code = (
        "import sys\n"
        "from e1forge.cli import main\n"
        "main(['oracle', 'verify', '--group', 'GL', '--d', '2', '--q', '4'])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
