"""Polynomial duality, factorization, and charpoly enumeration."""

import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poly_reference
from census_reference import (
    DIGEST_LIMIT,
    DIGESTS,
    LIVE_LIMIT,
    census_cases,
    is_unitary_compatible,
    palindrome_walk,
    reference_enumerate,
    reference_irreducibles,
    sieve_census,
    stream_digest,
)
from formula_reference import expand as reference_expand

from e1forge import polyfield
from e1forge.gf2k import field_for, make_field
from e1forge.polyfield import (
    Factorization,
    MonicPoly,
    PolyError,
    enumerate_charpolys,
    format_poly,
    irreducibles,
    parse_poly,
    poly_dagger,
    poly_factor,
    poly_star,
    x_plus,
    _derivative,
    _make_factorization,
    _poladd,
    _polgcd,
    _poldivmod,
    _polmod,
    _polmul,
    _polsqrmod,
    _trim,
)

GF2 = make_field(1, 1)
GF4 = make_field(1, 2)  # q = 2, delta = 2
GF16 = make_field(2, 2)  # q = 4, delta = 2


def random_monic(field, rng, degree):
    while True:
        coeffs = tuple(rng.randrange(field.size) for _ in range(degree))
        if coeffs[0]:  # nonzero constant term so star is defined
            return MonicPoly(field, coeffs)


@st.composite
def monic_polys(draw, field=GF4, max_degree=5):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    c0 = draw(st.integers(min_value=1, max_value=field.size - 1))
    rest = draw(
        st.lists(
            st.integers(min_value=0, max_value=field.size - 1),
            min_size=degree - 1,
            max_size=degree - 1,
        )
    )
    return MonicPoly(field, tuple([c0] + rest))


def test_star_example():
    # x^2 + wx + w2 over GF(4): roots invert, coefficients reverse and scale
    p = MonicPoly(GF4, (3, 2))
    s = poly_star(p)
    assert s.degree == 2
    assert poly_star(s) == p


@given(monic_polys())
@settings(max_examples=200)
def test_star_is_an_involution(p):
    assert poly_star(poly_star(p)) == p


@given(monic_polys(max_degree=3), monic_polys(max_degree=3))
@settings(max_examples=200)
def test_star_is_multiplicative(p, r):
    assert poly_star(p * r) == poly_star(p) * poly_star(r)


@given(monic_polys())
@settings(max_examples=200)
def test_dagger_is_an_involution(p):
    assert poly_dagger(poly_dagger(p)) == p


@given(monic_polys(max_degree=3), monic_polys(max_degree=3))
@settings(max_examples=200)
def test_dagger_is_multiplicative(p, r):
    assert poly_dagger(p * r) == poly_dagger(p) * poly_dagger(r)


@pytest.mark.parametrize("field", [GF2, GF4, GF16])
def test_duality_parities_exhaustive(field):
    """Exhaustive scan of irreducibles of degree <= 4.

    Self-inverse-roots forces even degree (except x+1); over a delta=2 field
    self-dagger forces odd degree.  Star and dagger also preserve
    irreducibility and degree.
    """
    x_plus_one = x_plus(field, 1)
    for k in range(1, 5):
        irr = set(irreducibles(field, k))
        for p in irr:
            if p.constant_term() == 0:
                continue  # x itself: no inverse roots
            s = poly_star(p)
            assert s.degree == k
            assert s in irr
            if p == s and p != x_plus_one:
                assert k % 2 == 0
            if field.delta == 2:
                dg = poly_dagger(p)
                assert dg.degree == k
                assert dg in irr
                if p == dg:
                    assert k % 2 == 1


def test_star_fixed_points_deg2_gf4():
    # the degree-2 irreducibles over GF(4) with self-inverse root sets
    fixed = [p for p in irreducibles(GF4, 2) if poly_star(p) == p]
    # x^2 + x + 1 splits over GF(4); the survivors are x^2 + wx + 1 and
    # x^2 + w^2x + 1
    assert {p.coeffs for p in fixed} == {(1, 2), (1, 3)}


@pytest.mark.parametrize("field,degree", [(GF2, 4), (GF4, 3), (GF16, 2)])
def test_factor_roundtrip_exhaustive(field, degree):
    # the census is built from orbits, not factored: poly_factor must
    # find the same factorization
    for fac in enumerate_charpolys(degree, field):
        assert fac.expand().degree == degree
        assert poly_factor(fac.expand()) == fac
        for q, m in fac.factors:
            assert m >= 1
            assert len(poly_factor(q).factors) == 1


def test_factor_repeated_and_inseparable():
    # (x+1)^4 has zero derivative twice over GF(2)
    p = x_plus(GF2, 1) ** 4
    fac = poly_factor(p)
    assert fac.factors == ((x_plus(GF2, 1), 4),)
    assert fac.expand() == p


@pytest.mark.parametrize("d,q", [(5, 4), (6, 2)])
def test_expand_matches_monicpoly_fold_on_criterion_5_census(d, q):
    fld = field_for(q, -1)
    for real in (False, True):
        for fac in enumerate_charpolys(d, fld, real=real, unitary=True):
            assert fac.expand() == reference_expand(fac)


@pytest.mark.parametrize("degree", [1, 8, 20])
def test_expand_matches_monicpoly_fold_on_factorizations(degree):
    # repeated factors, as squares and cubes, give multiplicities above 1
    fld = make_field(degree)
    rng = random.Random(degree)
    for _ in range(8):
        a, b = random_monic(fld, rng, rng.randrange(1, 4)), random_monic(fld, rng, 2)
        p = a**3 * b**2 * random_monic(fld, rng, rng.randrange(1, 5))
        fac = poly_factor(p)
        assert fac.expand() == reference_expand(fac) == p


def factor_roots_scan(p):
    """Root-scan cross-check path: only for tiny fields and degree <= 3."""
    fld = p.field
    if fld.size > 16 or p.degree > 3:
        return None

    def is_root(work, a):  # Horner
        r = 0
        for c in reversed(work):
            r = fld.mul(r, a) ^ c
        return r == 0

    counter = {}
    work = list(p.coeffs) + [1]
    for a in range(fld.size):
        while len(work) - 1 > 0 and is_root(work, a):
            work, r = _poldivmod(fld, work, [a, 1])
            assert not r
            lin = x_plus(fld, a)
            counter[lin] = counter.get(lin, 0) + 1
    if len(work) - 1 > 0:
        rest = MonicPoly(fld, tuple(work[:-1]))
        # rootless of degree 2 or 3 over a field is irreducible
        counter[rest] = counter.get(rest, 0) + 1
    return _make_factorization(fld, counter)


def test_root_scan_agrees_with_factor():
    rng = random.Random(7)
    for _ in range(50):
        p = random_monic(GF4, rng, rng.randrange(1, 4))
        scan = factor_roots_scan(p)
        if scan is not None:
            assert scan.factors == poly_factor(p).factors


def test_real_charpoly_criterion():
    # real in even characteristic means palindromic with constant term 1
    p = MonicPoly(GF4, (1, 2, 2))  # c0=1, c1=c2 mirrored about degree 3
    assert poly_star(p) == p
    assert poly_star(MonicPoly(GF4, (2, 1, 1))) != MonicPoly(GF4, (2, 1, 1))


def test_real_degree2_count_over_gf4():
    # all real monic degree-2 charpolys with nonzero constant term
    found = [f.expand() for f in enumerate_charpolys(2, GF4, real=True)]
    assert len(found) == 4
    assert all(poly_star(p) == p for p in found)


def test_unitary_compatible_subset():
    reals = list(enumerate_charpolys(3, GF4, real=True))
    unitary = list(enumerate_charpolys(3, GF4, real=True, unitary=True))
    assert 0 < len(unitary) <= len(reals)
    for f in unitary:
        p = f.expand()
        assert is_unitary_compatible(p) and poly_star(p) == p


def test_real_implies_even_multiplicity_off_units():
    # any real charpoly: non-self-star factors pair up with equal multiplicity
    for f in enumerate_charpolys(4, GF4, real=True):
        for p, m in f.factors:
            assert dict(f.factors).get(poly_star(p)) == m


def test_format_parse_roundtrip():
    p = MonicPoly(GF16, (5, 0, 11))
    assert parse_poly(format_poly(p), GF16) == p
    with pytest.raises(PolyError):
        parse_poly("poly(GF(2^4))[2,0]", GF16)  # not monic
    for bad in ("poly(GF(2^" + "4" * 5000 + "))[1]", "poly(GF(2^4))[1 1,1]"):
        with pytest.raises(PolyError):
            parse_poly(bad, GF16)


def test_enumeration_budget_guard():
    with pytest.raises(PolyError):
        list(enumerate_charpolys(20, GF16, budget=10))


@pytest.mark.parametrize(
    "d,kwargs,space",
    [
        (4, {}, 15 * 16**3),  # (Q - 1) Q^(d-1)
        (4, {"unitary": True}, 5 * 4**3),  # (q + 1) q^(d-1)
        (5, {"real": True}, 16**2),  # Q^floor(d/2)
        (5, {"real": True, "unitary": True}, 4**2),  # q^floor(d/2)
    ],
)
def test_budget_charges_the_parametrized_space(d, kwargs, space):
    assert len(list(enumerate_charpolys(d, GF16, budget=space, **kwargs))) == space
    with pytest.raises(PolyError):
        next(enumerate_charpolys(d, GF16, budget=space - 1, **kwargs))


@pytest.mark.parametrize(
    "kwargs,text",
    [({}, "15*16^4"), ({"unitary": True}, "5*4^4"), ({"real": True}, "16^2")],
)
def test_budget_refusal_names_the_space_as_a_power(kwargs, text):
    # never as its digits, which can pass Python's integer-string limit
    with pytest.raises(PolyError) as exc:
        next(enumerate_charpolys(5, GF16, budget=1, **kwargs))
    assert str(exc.value) == f"enumeration space {text} exceeds budget 1"


@pytest.mark.parametrize("epsilon,d,q", census_cases(DIGEST_LIMIT))
def test_enumeration_matches_filter_reference(epsilon, d, q):
    """Set and order against the filter-and-factor path, live wherever
    Q^d <= LIVE_LIMIT and for every real stream; above that the non-real
    streams are compared with digests of the reference's yields."""
    field = field_for(q, epsilon)
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    for real in (False, True):
        for unitary in (False, True):
            new = enumerate_charpolys(d, field, real=real, unitary=unitary)
            if unitary and epsilon == 1:
                with pytest.raises(PolyError):
                    next(new)
                with pytest.raises(PolyError):
                    next(reference_enumerate(d, field, real=real, unitary=unitary))
            elif real or field.size**d <= LIVE_LIMIT:
                ref = reference_enumerate(d, field, real=real, unitary=unitary)
                assert list(new) == list(ref)
            else:
                key = f"{epsilon},{d},{q},{int(unitary)}"
                assert stream_digest(new) == digests[key]


@pytest.mark.parametrize("epsilon,d,q", [(1, 3, 4), (-1, 3, 2), (-1, 4, 2), (-1, 2, 4)])
def test_exclude_identity_matches_reference(epsilon, d, q):
    field = field_for(q, epsilon)
    for real in (False, True):
        for unitary in (False, True) if epsilon == -1 else (False,):
            kwargs = {"real": real, "unitary": unitary, "exclude_identity": True}
            new = list(enumerate_charpolys(d, field, **kwargs))
            assert new == list(reference_enumerate(d, field, **kwargs))
            assert x_plus(field, 1) ** d not in [f.expand() for f in new]


def test_digests_match_the_live_reference():
    # the stored digests come from the reference; recompute the cheapest
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    assert len(digests) == sum(
        2 if e == -1 else 1
        for e, d, q in census_cases(DIGEST_LIMIT)
        if field_for(q, e).size ** d > LIVE_LIMIT
    )
    for key in ("1,1,16384,0", "-1,7,2,1"):
        e, d, q, u = map(int, key.split(","))
        stream = reference_enumerate(d, field_for(q, e), unitary=bool(u))
        assert stream_digest(stream) == digests[key]


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def necklace(size, k):
    """Gauss's count of monic irreducibles of degree k over GF(size)."""
    return sum(mobius(j) * size ** (k // j) for j in range(1, k + 1) if k % j == 0) // k


def self_reciprocal(size, k):
    """Monic irreducibles p = p-star of degree k over GF(size), size even:
    x + 1 at k = 1, none at odd k > 1, and at k = 2n the count
    (1/2n) sum over odd e | n of mu(e) size^(n/e) (Meyn, AAECC 1, 1990)."""
    if k % 2:
        return int(k == 1)
    n = k // 2
    return sum(mobius(e) * size ** (n // e) for e in range(1, n + 1, 2) if n % e == 0) // k


@pytest.mark.parametrize(
    "f,delta,top",
    [(1, 1, 10), (1, 2, 5), (3, 1, 3), (2, 2, 3), (1, 1, 16), (1, 2, 8)],
)
def test_irreducible_counts_match_necklace_formula(f, delta, top):
    field = make_field(f, delta)
    for k in range(1, top + 1):
        assert len(irreducibles(field, k)) == necklace(field.size, k)


@pytest.mark.parametrize(
    "field,top",
    [(GF2, 16), (make_field(2, 1), 12), (make_field(3, 1), 8), (GF4, 12), (GF16, 6)],
)
def test_real_orbit_counts_match_closed_form(field, top):
    # real orbits: x + 1, each p = p-star, and each pair {p, p-star}, so
    # degree 2k has S(2k) + (I(k) - S(k)) / 2, I(k) the irreducibles of
    # degree k with c_0 != 0
    orbits = polyfield._orbits(field, top, True, False)
    counts = collections.Counter(len(full) - 1 for full, _ in orbits)
    expected = {1: 1}
    for k in range(1, top // 2 + 1):
        irr = necklace(field.size, k) - (k == 1)
        pairs, odd = divmod(irr - self_reciprocal(field.size, k), 2)
        assert not odd
        expected[2 * k] = self_reciprocal(field.size, 2 * k) + pairs
    assert counts == expected


@pytest.mark.parametrize("field,top", [(GF2, 8), (GF4, 6), (GF16, 3)])
def test_trace_rule_counts_the_self_reciprocal_irreducibles(field, top):
    # x^j g(x + 1/x) is one irreducible p = p-star of degree 2j exactly
    # when Tr(g_1/g_0) = 1 (Meyn), so there are S(2j) such g of degree j
    for j in range(1, top + 1):
        count = 0
        for g in irreducibles(field, j):
            g0, g1 = (*g.coeffs, 1)[:2]
            if g0:
                t = field.mul(g1, field.inv(g0))
                trace = 0
                for i in range(field.degree):
                    trace ^= field.pow(t, 2**i)
                assert trace in (0, 1)
                count += trace
        assert count == self_reciprocal(field.size, 2 * j)


@pytest.mark.parametrize("epsilon,d,q", census_cases(DIGEST_LIMIT) + [(1, 12, 4)])
def test_census_matches_the_sieve_reference(epsilon, d, q):
    # the same orbits (product, factors) and the same classes, each a
    # multiset of orbits, on every stream of at most LIVE_LIMIT
    # parametrized polynomials (real GL_12(4): 4^6)
    field = field_for(q, epsilon)
    Q = field.size
    for real in (False, True):
        for unitary in (False, True) if epsilon == -1 else (False,):
            if real:
                space = (q if unitary else Q) ** (d // 2)
            elif unitary:
                space = (q + 1) * q ** (d - 1)
            else:
                space = (Q - 1) * Q ** (d - 1)
            if space > LIVE_LIMIT:
                continue
            ours = polyfield._orbits(field, d, real, unitary)
            seen = []
            for orbits, classes in (
                (ours, polyfield._products(field, ours, d)),
                sieve_census(field, d, real, unitary),
            ):
                fulls = [tuple(full) for full, _ in orbits]
                named = {full: irr for full, (_, irr) in zip(fulls, orbits)}
                assert len(named) == len(orbits)
                multisets = {
                    key: sorted((fulls[i], m) for i, m in chosen)
                    for key, chosen in classes.items()
                }
                seen.append((named, multisets))
            assert seen[0] == seen[1]


@pytest.mark.parametrize(
    "field,top,unitary",
    [(GF2, 12, False), (make_field(2, 1), 8, False), (GF4, 12, False), (GF4, 12, True)]
    + [(GF16, 6, False), (GF16, 8, True)],
)
def test_real_orbits_are_squarefree_and_closed(field, top, unitary):
    # each orbit product is squarefree, and its factors are one orbit of
    # <star> (of <star, dagger> when unitary): the images of any factor
    orbits = polyfield._orbits(field, top, True, unitary)
    for full, irr in orbits:
        assert Factorization(field, tuple((p, 1) for p in irr)).expand().coeffs == tuple(
            full[:-1]
        )
        assert _polgcd(field, full, _derivative(field, full)) == [1]
        images = {irr[0], poly_star(irr[0])}
        if unitary:
            images |= {poly_dagger(p) for p in images}
        assert set(irr) == images and len(irr) == len(images)


@pytest.mark.parametrize("epsilon,d,q", [(-1, 5, 4), (-1, 6, 2), (-1, 10, 4), (1, 6, 4)])
def test_real_stream_matches_palindrome_walk(epsilon, d, q):
    # the sweep's stream on the README, criterion 5 and bench sweep groups,
    # class for class and in order; GU_10(4) is beyond the filter
    # reference's reach (16^5 palindromes)
    field, unitary = field_for(q, epsilon), epsilon == -1
    new = enumerate_charpolys(d, field, real=True, unitary=unitary, exclude_identity=True)
    assert list(new) == list(palindrome_walk(d, field, unitary, exclude_identity=True))


@pytest.mark.parametrize(
    "f,delta,top",
    [(1, 1, 12), (2, 1, 6), (1, 2, 6), (3, 1, 4), (4, 1, 3), (2, 2, 3)],
)
def test_irreducibles_match_the_product_sieve(f, delta, top):
    # the sieve on codes against the sieve that multiplies out every p*r,
    # tuple for tuple and in order
    field = make_field(f, delta)
    for k in range(1, top + 1):
        assert irreducibles(field, k) == reference_irreducibles(field, k)


@pytest.mark.parametrize("field,top", [(GF2, 8), (GF4, 4)])
def test_irreducibles_match_factorization(field, top):
    # the sieve against an independent reference: monic polynomials that
    # poly_factor leaves as a single factor of multiplicity 1, in order
    for k in range(1, top + 1):
        monics = [
            MonicPoly(field, c) for c in itertools.product(range(field.size), repeat=k)
        ]
        expected = [
            p for p in monics if [m for _, m in poly_factor(p).factors] == [1]
        ]
        assert list(irreducibles(field, k)) == expected


# --- division and the dualities on log tables against per-coefficient calls -


@pytest.mark.parametrize("k", [1, 2, 8, 16, 20])
def test_poldivmod_matches_the_field_call_loop(k):
    fld = make_field(k)
    rng = random.Random(300 + k)
    for _ in range(200):
        # monic and non-monic divisors (the gcd path), a constant among them;
        # dividends shorter than, as long as and longer than the divisor
        b = [rng.randrange(fld.size) for _ in range(rng.randrange(0, 7))]
        b.append(rng.choice([1, rng.randrange(1, fld.size)]))
        a = [rng.randrange(fld.size) for _ in range(rng.randrange(0, 3 * len(b)))]
        a += [0] * rng.randrange(2)
        assert _poldivmod(fld, a, b) == poly_reference.poldivmod(fld, a, b)


# the bench's irreducible fields, (f, delta, top degree)
IRREDUCIBLE_FIELDS = [(1, 1, 9), (1, 2, 5), (3, 1, 3), (2, 2, 2)]


@pytest.mark.parametrize("f,delta,top", IRREDUCIBLE_FIELDS)
def test_dualities_match_twist_then_star_on_irreducibles(f, delta, top):
    fld = make_field(f, delta)
    for k in range(1, top + 1):
        for p in irreducibles(fld, k):
            duals = [(poly_star, poly_reference.star)]
            if delta == 2:
                duals.append((poly_dagger, poly_reference.dagger))
            for new, ref in duals:
                if p.constant_term():
                    assert new(p) == ref(p)
                else:
                    with pytest.raises(PolyError, match="zero constant term"):
                        new(p)


def test_dualities_match_twist_then_star_over_gf2_20():
    # delta = 2, f = 10: above TABLE_MAX_DEGREE, on FieldSpec's own calls
    fld = make_field(10, 2)
    rng = random.Random(10)
    for _ in range(100):
        p = random_monic(fld, rng, rng.randrange(1, 9))
        assert poly_star(p) == poly_reference.star(p)
        assert poly_dagger(p) == poly_reference.dagger(p)


@pytest.mark.parametrize("f,delta", [(1, 1), (4, 1), (1, 2), (10, 2)])
def test_duality_errors_keep_their_messages(f, delta):
    fld = make_field(f, delta)
    one, zero_constant = MonicPoly(fld, ()), MonicPoly(fld, (0, 1))
    assert poly_star(one) == one
    with pytest.raises(PolyError, match="^star undefined: zero constant term$"):
        poly_star(zero_constant)
    if delta == 1:
        for p in (one, zero_constant, x_plus(fld, 1)):
            with pytest.raises(PolyError, match="^dagger requires a delta=2 field$"):
                poly_dagger(p)
    else:
        assert poly_dagger(one) == one
        with pytest.raises(PolyError, match="^dagger undefined: zero constant term$"):
            poly_dagger(zero_constant)


# --- the characteristic-2 squaring path against square-and-multiply -------


@pytest.mark.parametrize("k", [1, 8, 16, 17, 20])
def test_polsqrmod_matches_product(k):
    fld = make_field(k)
    rng = random.Random(k)
    for _ in range(40):
        # a monic or non-monic modulus; a empty, untrimmed, or past deg m
        m = [rng.randrange(fld.size) for _ in range(rng.randrange(1, 9))]
        m.append(rng.choice([1, rng.randrange(1, fld.size)]))
        a = [rng.randrange(fld.size) for _ in range(rng.randrange(0, 2 * len(m)))]
        a += [0] * rng.randrange(2)
        assert _polsqrmod(fld, a, m) == _polmod(fld, _polmul(fld, a, a), m)


def _polpowmod_reference(fld, a, e, m):
    """a^e mod m by square-and-multiply over full products."""
    r = [1]
    a = _polmod(fld, list(a), m)
    while e:
        if e & 1:
            r = _polmod(fld, _polmul(fld, r, a), m)
        e >>= 1
        a = _polmod(fld, _polmul(fld, a, a), m)
    return r


def _equal_degree_split_reference(fld, f, d, rng):
    """Cantor-Zassenhaus trace split, squaring by full products."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = [rng.randrange(fld.size) for _ in range(len(f) - 1)]
        if not _trim(list(a)):
            continue
        t, s = list(a), list(a)
        for _ in range(fld.degree * d - 1):
            s = _polmod(fld, _polmul(fld, s, s), f)
            t = _poladd(t, s)
        g = _polgcd(fld, t, f)
        if 0 < len(g) - 1 < len(f) - 1:
            q, r = _poldivmod(fld, f, g)
            assert not r
            return _equal_degree_split_reference(
                fld, g, d, rng
            ) + _equal_degree_split_reference(fld, q, d, rng)


def _factor_squarefree_reference(fld, f, rng):
    """Distinct-degree factoring with h <- h^Q by square-and-multiply."""
    out, x, h, d = [], [0, 1], [0, 1], 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            out.append(f)
            break
        h = _polpowmod_reference(fld, h, fld.size, f)
        g = _polgcd(fld, _poladd(h, x), f)
        if len(g) - 1 > 0:
            out.extend(_equal_degree_split_reference(fld, g, d, rng))
            f, r = _poldivmod(fld, f, g)
            assert not r
            h = _polmod(fld, h, f)
    return out


def known_irreducible(fld, rng, bits):
    """c^-d p(c(x + a)) for p, given as a bitmask, irreducible over GF(2) of
    degree d prime to the field degree, so irreducible over fld too."""
    d = bits.bit_length() - 1
    c, a = rng.randrange(1, fld.size), rng.randrange(fld.size)
    lin = [fld.mul(c, a), c]
    out = []
    for i in range(d, -1, -1):  # Horner in the linear polynomial
        out = _poladd(_polmul(fld, out, lin), [(bits >> i) & 1])
    scale = fld.inv(fld.pow(c, d))
    return MonicPoly(fld, tuple(fld.mul(scale, v) for v in out[:-1]))


@pytest.mark.parametrize("k", [17, 20])
def test_factor_bit_serial_fields(k, monkeypatch):
    fld = make_field(k)
    rng = random.Random(k)
    # GF(2)-irreducibles of degree 1 and 3, and 2 over GF(2^17) only
    l1, l2, l3 = (known_irreducible(fld, rng, 0b11) for _ in range(3))
    c1, c2 = known_irreducible(fld, rng, 0b1011), known_irreducible(fld, rng, 0b1101)
    sq = known_irreducible(fld, rng, 0b111) if k == 17 else l3
    assert len({l1, l2, l3, c1, c2, sq}) == (6 if k == 17 else 5)
    cases = [
        {l1: 1, l2: 1, l3: 1, c1: 1, c2: 1},  # equal-degree splits
        {l1: 2, c1: 3, sq: 1},  # repeated factors
        {c1: 2, c2: 2},  # inseparable: zero derivative
        {l1: 4, l2: 2, sq: 2, c2: 1},
    ]
    inputs = []
    for counts in cases:
        p = MonicPoly(fld, ())
        for f, m in counts.items():
            p = p * f**m
        assert poly_factor(p) == _make_factorization(fld, counts)
        inputs.append(p)
    inputs += [random_monic(fld, rng, 6) for _ in range(3)]
    fast = [poly_factor(p) for p in inputs]
    monkeypatch.setattr(polyfield, "_factor_squarefree", _factor_squarefree_reference)
    assert [poly_factor(p) for p in inputs] == fast


@pytest.mark.parametrize("k", [1, 2, 8, 17, 20])
def test_frobenius_matrix_path_matches_reference(k, monkeypatch):
    fld = make_field(k)
    rng = random.Random(100 + k)

    def draw(bits, count):  # distinct irreducibles of the given GF(2) shapes
        out = []
        while len(out) < count:
            p = known_irreducible(fld, rng, rng.choice(bits))
            if p not in out:
                out.append(p)
        return out

    l1, l2 = draw([0b11], 2)
    cubics = draw([0b1011, 0b1101], 2 if k == 1 else 3)
    s1, s2 = draw([0b10000011, 0b10001001], 2)  # septics
    quads = draw([0b111], 1 if k == 1 else 2) if k % 2 else []
    cases = [
        dict.fromkeys(cubics[:2], 1),  # equal-degree split with d = 3
        dict.fromkeys(cubics, 1),
        # splits at d = 1 and d = 3, then continues to d = 7 on reduced rows
        {l1: 1, cubics[0]: 1, cubics[1]: 1, s1: 1, s2: 1},
        {cubics[0]: 2, s1: 1, l1: 3},
    ]
    if len(quads) == 2:
        cases.append({quads[0]: 1, quads[1]: 1, cubics[0]: 1, s1: 1})
    small = [l1 * l2, cubics[0], l1 * cubics[0]]
    small += quads + [random_monic(fld, rng, n) for n in (2, 3, 3)]

    steps, reduced = [], []
    frobenius, rows_mod = polyfield._frobenius, polyfield._rows_mod
    monkeypatch.setattr(
        polyfield, "_frobenius", lambda *a: steps.append(a) or frobenius(*a)
    )
    monkeypatch.setattr(
        polyfield,
        "_rows_mod",
        lambda fld, rows, f: reduced.append(rows and len(rows) > len(f) - 1)
        or rows_mod(fld, rows, f),
    )
    for p in small:  # no distinct-degree step after the first: no matrix
        poly_factor(p)
    assert not steps and not any(reduced)
    inputs = []
    for counts in cases:
        p = MonicPoly(fld, ())
        for f, m in counts.items():
            p = p * f**m
        assert poly_factor(p) == _make_factorization(fld, counts)
        inputs.append(p)
    assert steps and any(reduced)
    inputs += small
    fast = [poly_factor(p) for p in inputs]
    monkeypatch.setattr(polyfield, "_factor_squarefree", _factor_squarefree_reference)
    assert [poly_factor(p) for p in inputs] == fast


@pytest.mark.parametrize("k", [1, 2, 8, 17, 20])
def test_trace_split_follows_the_reference_draw_for_draw(k):
    # the matrix path computes the same trace polynomial mod f, so from the
    # same generator state it finds the same splits in the same order
    fld = make_field(k)
    rng = random.Random(200 + k)
    # GF(2) has two irreducible cubics and one quadratic, and x^2 + x + 1
    # stays irreducible only over fields of odd degree
    shapes = [(3, [0b1011, 0b1101])] + ([(2, [0b111])] if k == 17 else [])
    for d, bits in shapes:
        factors = []
        while len(factors) < (2 if k == 1 else 3):
            p = known_irreducible(fld, rng, rng.choice(bits))
            if p not in factors:
                factors.append(p)
        prod = MonicPoly(fld, ())
        for p in factors:
            prod = prod * p
        f = list(prod.coeffs) + [1]
        # rows[i] = x^(iQ) mod f, by square-and-multiply over full products
        rows = [
            _polpowmod_reference(fld, [0] * i + [1], fld.size, f)
            for i in range(len(f) - 1)
        ]
        for seed in range(4):
            fast = polyfield._equal_degree_split(fld, f, d, rows, random.Random(seed))
            ref = _equal_degree_split_reference(fld, f, d, random.Random(seed))
            assert fast == ref, (d, seed)


def test_equal_degree_split_raises_on_a_broken_trace(monkeypatch):
    # with the Q-power matrix of the identity map, every draw at d = 2 over
    # GF(4) has b = a + a = 0 and trace 0, so none splits: the split must
    # raise after its draw limit instead of drawing forever
    def identity_rows(fld, rows, f):
        return rows and [[0] * i + [1] for i in range(len(f) - 1)]

    p1, p2 = irreducibles(GF4, 2)[:2]
    product = p1 * p2
    assert poly_factor(product).factors == ((p1, 1), (p2, 1))
    monkeypatch.setattr(polyfield, "_rows_mod", identity_rows)
    with pytest.raises(PolyError, match="degree-4 product of degree-2 irreducibles"):
        poly_factor(product)
