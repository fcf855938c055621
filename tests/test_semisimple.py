"""Class invariants: shapes, indices, case analysis, explicit elements."""

import itertools
import random
from fractions import Fraction

import pytest
from census_reference import is_unitary_compatible
from formula_reference import expand, pgl_is_real as reference_pgl_is_real, scale_charpoly

from e1forge import semisimple
from e1forge.bounds import group_order_eps
from e1forge.gf2k import central_scalars, field_for, log_exp_tables, make_field
from e1forge.polyfield import (
    MonicPoly,
    enumerate_charpolys,
    poly_dagger,
    poly_factor,
    poly_star,
    x_plus,
)
from e1forge.semisimple import (
    SemisimpleClass,
    SemisimpleError,
    centralizer_shape,
    classify_gudprep,
    d_bound_fourth,
    d_statistic_cmp,
    d_statistic_fourth,
    eigenspace_bound_failure,
    index_odd_part,
    involution_with_blocks,
    is_real_class,
    min_character_degree,
    palindromic_element,
    pgl_centralizer_order,
    pgl_is_real,
    semisimple_class,
    twisted_coeffs,
)

GF4 = make_field(2, 1)
GF4U = make_field(1, 2)  # q = 2, unitary coefficient field
GF16U = make_field(2, 2)  # q = 4, unitary coefficient field


def test_shape_linear_irreducible():
    # irreducible degree-3 charpoly: a single torus GL_1(q^3)
    c = semisimple_class(1, 3, 4, MonicPoly(GF4, (2, 3, 1)))
    shape = centralizer_shape(c)
    assert shape.factors == (("GL", 1, 64),)
    assert shape.order == 63
    assert index_odd_part(c) == 45
    assert min_character_degree(c) == 15


def test_shape_linear_split():
    # (x+1)^2 (x+w): GL_2(q) x GL_1(q)
    xi = x_plus(GF4, 1) ** 2 * x_plus(GF4, 2)
    c = semisimple_class(1, 3, 4, xi)
    shape = centralizer_shape(c)
    assert sorted(shape.factors) == [("GL", 1, 4), ("GL", 2, 4)]
    assert shape.order == 180 * 3


def test_shape_unitary_self_dagger_vs_pair():
    # x^6 + 1 over GF(4), q = 2: three self-dagger linear factors
    c = semisimple_class(-1, 6, 2, MonicPoly(GF4U, (1, 0, 0, 0, 0, 0)))
    shape = centralizer_shape(c)
    assert shape.factors == (("GU", 2, 2),) * 3
    assert shape.order == 5832
    assert index_odd_part(c) == 3465
    assert min_character_degree(c) == 1155


def test_unitary_dagger_pair_becomes_gl():
    # a dagger pair of linear factors contributes GL_m(q^2) exactly once
    fld = GF16U
    pairs = [
        (a, fld.pow(a, 4))
        for a in range(2, fld.size)
        if fld.pow(a, 4) != a and fld.inv(a) != a
    ]
    a, b = pairs[0][0], fld.inv(pairs[0][0])
    # build Xi = (x+a)(x+a^-q) ... ensure unitary compatibility via dagger
    adag = fld.inv(fld.pow(a, 4))
    xi = x_plus(fld, a) * x_plus(fld, adag) * x_plus(fld, 1) ** 3
    c = semisimple_class(-1, 5, 4, xi)
    kinds = sorted(k for k, _, _ in centralizer_shape(c).factors)
    assert kinds == ["GL", "GU"]


def test_rejects_non_unitary_xi():
    with pytest.raises(SemisimpleError):
        semisimple_class(-1, 2, 4, x_plus(GF16U, 2) * x_plus(GF16U, 1))


def test_refuses_wrong_degree_xi_before_factoring(monkeypatch):
    # factoring this degree-600 poly over GF(4) would take about 20 s
    def no_factor(poly):
        raise AssertionError("factored an xi of the wrong degree")

    monkeypatch.setattr(semisimple, "poly_factor", no_factor)
    xi = MonicPoly(GF4, (1,) * 600)
    with pytest.raises(SemisimpleError, match="degree 600, class dimension is 3"):
        semisimple_class(1, 3, 4, xi)


def real_by_star_pairing(c):
    """Reference: every factor other than x+1 meets its star with the same
    multiplicity."""
    one_factor = x_plus(c.field, 1)
    return all(
        dict(c.xi.factors).get(poly_star(p)) == m
        for p, m in c.xi.factors
        if p != one_factor
    )


def unitary_by_expanded_dagger(xi):
    """Reference: expand Xi and compare the degree-d product with its dagger."""
    return is_unitary_compatible(xi.expand())


def test_realness_structure():
    fld = GF4
    a = 2
    xi = x_plus(fld, a) * x_plus(fld, fld.inv(a)) * x_plus(fld, 1)
    c = semisimple_class(1, 3, 4, xi)
    assert is_real_class(c) and real_by_star_pairing(c)
    xi_bad = x_plus(fld, a) ** 2 * x_plus(fld, 1)
    c_bad = semisimple_class(1, 3, 4, xi_bad)
    assert not is_real_class(c_bad) and not real_by_star_pairing(c_bad)


# the five census groups of the formulas benchmark, then GU_5(4) and GL_4(8)
@pytest.mark.parametrize(
    "epsilon,d,q",
    [(1, 3, 8), (1, 4, 4), (1, 2, 16), (-1, 3, 4), (-1, 2, 8), (-1, 5, 4), (1, 4, 8)],
)
def test_shape_and_realness_match_references(epsilon, d, q):
    for fac in enumerate_charpolys(d, field_for(q, epsilon), unitary=epsilon == -1):
        c = SemisimpleClass(epsilon, d, q, fac)
        assert centralizer_shape(c) is centralizer_shape(c)
        assert is_real_class(c) == real_by_star_pairing(c)
        if epsilon == -1:
            assert unitary_by_expanded_dagger(fac)


@pytest.mark.parametrize("d,q", [(2, 4), (3, 4), (3, 2), (4, 2)])
def test_dagger_pairing_matches_expanded_dagger(d, q):
    # every Xi over GF(q^2) with Xi(0) != 0: a unitary class exists iff the
    # expanded Xi is its own dagger, and otherwise the class is refused
    fld = field_for(q, -1)
    built = refused = 0
    for coeffs in itertools.product(range(1, fld.size), *[range(fld.size)] * (d - 1)):
        xi = poly_factor(MonicPoly(fld, coeffs))
        if unitary_by_expanded_dagger(xi):
            SemisimpleClass(-1, d, q, xi)
            built += 1
        else:
            with pytest.raises(SemisimpleError, match="^Xi != Xi-dagger: no unitary"):
                SemisimpleClass(-1, d, q, xi)
            refused += 1
    assert built == q**d + q ** (d - 1) and refused


def test_scale_charpoly_matches_root_scaling():
    fld = GF4
    a, k = 2, 3
    xi = x_plus(fld, a) * x_plus(fld, 1)
    expected = x_plus(fld, fld.mul(k, a)) * x_plus(fld, fld.mul(k, 1))
    assert scale_charpoly(xi, k) == expected
    assert twisted_coeffs(xi, log_exp_tables(2)[0][k]) == expected.coeffs


# field degrees 1..16 have a doubled exp table, 17 and 20 do not
TWIST_DEGREES = [1, 2, 4, 8, 16, 17, 20]


def sparse_coeffs(fld, n, rng):
    """n coefficients, each zero with probability 1/3."""
    return tuple(rng.randrange(fld.size) if rng.random() < 2 / 3 else 0 for _ in range(n))


@pytest.mark.parametrize("degree", TWIST_DEGREES)
def test_twisted_coeffs_match_reference_twist(degree):
    fld = make_field(degree)
    log, exp = log_exp_tables(degree)
    n = fld.size - 1
    rng = random.Random(degree)
    for d in (1, 2, 3, 5, 8):
        for _ in range(6):
            xi = MonicPoly(fld, (rng.randrange(1, fld.size), *sparse_coeffs(fld, d - 1, rng)))
            for k in {0, n - 1, rng.randrange(n)}:  # kappa = 1, x^(n-1), random
                assert twisted_coeffs(xi, k) == scale_charpoly(xi, exp[k]).coeffs


def central(fld, m, j):
    """The j-th power of the generator x^((Q-1)/m) of the order-m subgroup."""
    n = fld.size - 1
    return log_exp_tables(fld.degree)[1][n // m * j % n]


def twist_sample(epsilon, q, rng):
    """Xi of degree 2 to 4 for GL_d(q) or GU_d(q), with zero coefficients:
    real Xi twisted by a central kappa (kappa = 1 included), so real in PGL;
    GL: random Xi, and random Xi whose c_0 has kappa roots; GU: p p-dagger
    at even d, and three roots in mu_{q+1} at d = 3."""
    fld = field_for(q, epsilon)
    m = q - epsilon

    def coeff():
        if rng.random() < 1 / 3:
            return 0
        if epsilon == 1:
            return rng.randrange(1, fld.size)
        # GF(q) inside GF(q^2) is 0 and mu_{q-1}: a palindrome over it is unitary
        return central(fld, q - 1, rng.randrange(q - 1))

    out = []
    for d in (2, 3, 4):
        for j in (0, rng.randrange(m)):
            cs = [coeff() for _ in range(d // 2)]
            pal = MonicPoly(fld, (1, *(cs[min(i, d - i) - 1] for i in range(1, d))))
            out.append(scale_charpoly(pal, central(fld, m, j)))
        if epsilon == 1:
            rest = sparse_coeffs(fld, d - 1, rng)
            c0 = fld.pow(fld.pow(central(fld, m, rng.randrange(m)), -d), fld.size // 2)
            out.append(MonicPoly(fld, (c0, *rest)))
            out.append(MonicPoly(fld, (rng.randrange(1, fld.size), *rest)))
        elif d % 2 == 0:
            p = MonicPoly(fld, (rng.randrange(1, fld.size), *sparse_coeffs(fld, d // 2 - 1, rng)))
            out.append(p * poly_dagger(p))
        else:
            r = [central(fld, q + 1, rng.randrange(q + 1)) for _ in range(3)]
            out.append(x_plus(fld, r[0]) * x_plus(fld, r[1]) * x_plus(fld, r[2]))
    return out


@pytest.mark.parametrize(
    "epsilon,q",
    [(1, 1 << k) for k in TWIST_DEGREES]
    + [(-1, 1 << k // 2) for k in TWIST_DEGREES if k % 2 == 0],
)
def test_realness_matches_reference_across_field_degrees(epsilon, q):
    rng = random.Random(q * epsilon)
    seen = set()
    for xi in twist_sample(epsilon, q, rng):
        c = semisimple_class(epsilon, xi.degree, q, xi)
        assert c.charpoly == expand(c.xi) == xi
        assert c.star == poly_star(xi)
        assert is_real_class(c) == (poly_star(xi) == xi)
        assert pgl_is_real(c) == reference_pgl_is_real(c), xi
        seen.add(pgl_is_real(c))
    assert seen == {True, False} or seen == {True} and q == 2  # few classes over GF(2)


@pytest.mark.parametrize("d,q", [(5, 4), (6, 2)])
def test_realness_matches_reference_on_criterion_5_census(d, q):
    fld = field_for(q, -1)
    for real in (False, True):
        for fac in enumerate_charpolys(d, fld, real=real, unitary=True):
            c = SemisimpleClass(-1, d, q, fac)
            xi = expand(fac)
            assert c.charpoly == xi and c.star == poly_star(xi)
            assert is_real_class(c) == (poly_star(xi) == xi)
            assert pgl_is_real(c) == reference_pgl_is_real(c)


def real_lift_scalar(field, zeta):
    """The unique xi with xi^(-2) = zeta (squaring is bijective here)."""
    if zeta == 0:
        raise SemisimpleError("zeta must be nonzero")
    half = field.size >> 1  # square root exponent
    return field.pow(field.inv(zeta), half)


def test_real_lift_scalar():
    fld = make_field(4, 1)
    for z in range(1, fld.size):
        xi = real_lift_scalar(fld, z)
        assert fld.pow(xi, -2) == z


def test_pgl_realness_at_least_as_often_as_gl():
    # projective realness is implied by realness of the lift, and the
    # projective centralizer never exceeds the lifted one
    for coeffs in [(2, 3, 1), (1, 2, 2), (3, 0, 0)]:
        c = semisimple_class(1, 3, 4, MonicPoly(GF4, coeffs))
        if is_real_class(c):
            assert pgl_is_real(c)
        assert pgl_centralizer_order(c) <= centralizer_shape(c).order


@pytest.mark.parametrize(
    "epsilon,d,q",
    [(1, 3, 4), (1, 4, 2), (1, 3, 8), (1, 4, 4), (1, 2, 16)]
    + [(-1, 3, 4), (-1, 2, 8), (-1, 4, 2)],
)
def test_pgl_centralizer_gcd_matches_centre_scan(epsilon, d, q):
    # reference: count the central kappa with kappa*Xi = Xi one by one
    for fac in enumerate_charpolys(d, field_for(q, epsilon), unitary=epsilon == -1):
        c = SemisimpleClass(epsilon, d, q, fac)
        xi = fac.expand()
        assert c.charpoly == xi
        centre = central_scalars(c.field, q - epsilon)
        stab = sum(1 for k in centre if scale_charpoly(xi, k) == xi)
        expected = centralizer_shape(c).order * stab // (q - epsilon)
        assert pgl_centralizer_order(c) == expected


@pytest.mark.parametrize(
    "epsilon,d,q",
    [(1, 3, 8), (1, 4, 4), (1, 2, 16), (-1, 3, 4), (-1, 2, 8), (-1, 4, 2), (-1, 5, 4)],
)
def test_pgl_is_real_matches_centre_scan(epsilon, d, q):
    # reference: twist Xi by every central kappa and compare with Xi-star
    for fac in enumerate_charpolys(d, field_for(q, epsilon), unitary=epsilon == -1):
        c = SemisimpleClass(epsilon, d, q, fac)
        star = poly_star(c.charpoly)
        centre = central_scalars(c.field, q - epsilon)
        expected = any(scale_charpoly(c.charpoly, k) == star for k in centre)
        assert pgl_is_real(c) == expected


@pytest.mark.parametrize("d", [3, 6])
def test_pgl_is_real_matches_centre_scan_on_a_large_centre(d):
    # GL_d(2^10): the centre has order 1023 = 3 * 11 * 31, so kappa^d =
    # c_0^(-2) has gcd(d, 1023) = 3 roots or none.  Sampled classes: twists
    # of palindromes (real), random polynomials, and random polynomials
    # whose c_0 has roots kappa
    q = 1024
    fld = field_for(q, 1)
    centre = central_scalars(fld, q - 1)
    rng = random.Random(d)
    polys = []
    for _ in range(6):
        cs = [rng.randrange(fld.size) for _ in range(d // 2)]
        pal = MonicPoly(fld, (1, *(cs[min(i, d - i) - 1] for i in range(1, d))))
        polys.append(scale_charpoly(pal, rng.choice(centre)))
        c0 = fld.pow(fld.pow(rng.choice(centre), -d), fld.size // 2)
        rest = [rng.randrange(fld.size) for _ in range(d - 1)]
        polys += [MonicPoly(fld, (c0, *rest)), MonicPoly(fld, (rng.randrange(1, q), *rest))]
    seen = set()
    for xi in polys:
        c = SemisimpleClass(1, d, q, poly_factor(xi))
        star = poly_star(xi)
        expected = any(scale_charpoly(xi, k) == star for k in centre)
        assert pgl_is_real(c) == expected, xi
        seen.add(expected)
    assert seen == {True, False} or seen == {True} and q == 2  # few classes over GF(2)


@pytest.mark.parametrize("epsilon,d,q", [(-1, 5, 4), (-1, 6, 4), (1, 4, 8)])
def test_census_counts_and_jordan_identity(epsilon, d, q):
    """Oracle-free checks at census scale.

    Steinberg's count of semisimple classes is q^d - eps q^{d-1}.  Every
    element is s*u with u unipotent in C(s), and GL_m(Q) and GU_m(Q) each
    have Q^{m(m-1)} unipotent elements, so summing [G:C(s)] times the
    unipotent count of C(s) over the census gives |G|.
    """
    order = group_order_eps(epsilon, d, q)
    count = total = 0
    for fac in enumerate_charpolys(d, field_for(q, epsilon), unitary=epsilon == -1):
        shape = centralizer_shape(SemisimpleClass(epsilon, d, q, fac))
        unipotent = 1
        for _, m, Q in shape.factors:
            unipotent *= Q ** (m * (m - 1))
        count += 1
        total += order // shape.order * unipotent
    assert count == q**d - epsilon * q ** (d - 1)
    assert total == order


def test_classifier_spec_example():
    c = semisimple_class(-1, 6, 2, MonicPoly(GF4U, (1, 0, 0, 0, 0, 0)))
    case = classify_gudprep(c)
    assert {"a", "h"} <= set(case.cases)
    assert case.witnesses["a"] == {"d1": 2, "d": 6}


def test_classifier_case_b_reducible_delta():
    # (x+1)^1 (x+w)^2 (x+w2)^2 over q=4 unitary: Delta = (x+w)(x+w2)
    fld = GF16U
    # find an a, a^-1 star pair of self-dagger linear factors
    chosen = None
    for a in range(2, fld.size):
        if fld.pow(a, 5) == 1 and fld.inv(a) != a:  # a^{q+1} = 1
            chosen = a
            break
    a = chosen
    xi = x_plus(fld, 1) * (x_plus(fld, a) * x_plus(fld, fld.inv(a))) ** 2
    c = semisimple_class(-1, 5, 4, xi)
    case = classify_gudprep(c)
    assert "b" in case.cases
    assert case.witnesses["b"]["delta_reducible"] is True


def test_classifier_preconditions():
    c = semisimple_class(1, 3, 4, MonicPoly(GF4, (2, 3, 1)))
    with pytest.raises(SemisimpleError):
        classify_gudprep(c)  # d < 5


def test_d_statistic_against_bound():
    c = semisimple_class(-1, 6, 2, MonicPoly(GF4U, (1, 0, 0, 0, 0, 0)))
    assert d_statistic_fourth(c) == Fraction(3465**4, 2 ** (6 * 7))
    assert d_statistic_cmp(c) == 1  # D exceeds the centralizer estimate
    assert d_bound_fourth(c) > 0


def test_eigenspace_dimension_bound():
    c = semisimple_class(-1, 6, 2, MonicPoly(GF4U, (1, 0, 0, 0, 0, 0)))
    assert eigenspace_bound_failure(c) is None
    # a real GL class breaks it: (x+1)^2 (x^4+2x^3+x^2+2x+1) in GL_6(4)
    quartic = MonicPoly(GF4, (1, 2, 1, 2))
    c = semisimple_class(1, 6, 4, x_plus(GF4, 1) ** 2 * quartic)
    assert eigenspace_bound_failure(c) == quartic


@pytest.mark.parametrize(
    "d,q,epsilon", [(3, 4, 1), (5, 4, -1), (6, 2, -1), (7, 8, 1), (9, 4, -1), (10, 4, 1)]
)
def test_palindromic_element_properties(d, q, epsilon):
    fld = make_field(q.bit_length() - 1, 2 if epsilon == -1 else 1)
    n = q - epsilon
    # a nontrivial determinant target inside mu_n
    target = fld.pow(2 if fld.degree > 1 else 1, (fld.size - 1) // n)
    t = palindromic_element(d, q, epsilon, target)
    assert len(t.entries) == d
    assert t.entries == t.entries[::-1]
    assert t.det() == target
    # every entry has odd order inside mu_{q-eps}
    for a in t.entries:
        assert fld.pow(a, n) == 1
    # the charpoly is fixed by star: reversing a palindromic diagonal
    # permutes its roots, and entries in mu_n invert within the set
    cp = t.charpoly()
    roots = sorted(fld.inv(a) for a in t.entries)
    assert roots == sorted(t.entries) or poly_star(cp).degree == d


def test_palindromic_inverse_is_reversal_image():
    # iota(t) = reversed-and-inverted diagonal; for entries in mu_n with
    # the palindromic layout this is t^{-1}
    t = palindromic_element(9, 4, -1, 1)
    fld = t.field
    inv = tuple(fld.inv(a) for a in t.entries)
    assert tuple(reversed(inv)) == tuple(
        fld.inv(a) for a in reversed(t.entries)
    )
    assert sorted(inv) == sorted(fld.inv(a) for a in t.entries)


@pytest.mark.parametrize(
    "d,l,q,epsilon,expected",
    [
        (3, 1, 2, 1, 8),
        (3, 1, 4, 1, 576),
        (3, 1, 2, -1, 72),
    ],
)
def test_involution_centralizer_formula(d, l, q, epsilon, expected):
    ib = involution_with_blocks(d, l, q, epsilon)
    assert ib.centralizer_order == expected
    assert ib.centralizer_order == q ** 3 * (q - epsilon) ** 2


def test_involution_matrix_is_an_involution():
    ib = involution_with_blocks(6, 2, 4, 1)
    d = ib.d
    # square over GF(4): (I + N)^2 = I since N^2 = 0 for the corner block
    fld = GF4
    rows = ib.rows
    sq = [
        [0] * d
        for _ in range(d)
    ]
    for i in range(d):
        for j in range(d):
            acc = 0
            for k in range(d):
                acc ^= fld.mul(rows[i][k], rows[k][j])
            sq[i][j] = acc
    assert all(sq[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d))
