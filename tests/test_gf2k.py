"""Field arithmetic: table rederivation, axioms, Frobenius, embeddings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e1forge.gf2k import (
    CONWAY_POLY_2,
    FieldError,
    central_scalars,
    compute_conway_poly,
    embed,
    fe,
    fe_order,
    field_for,
    frobenius,
    gen,
    make_field,
    one,
    subfield_image,
    zero,
)


def test_conway_table_rederives():
    # the frozen table must agree with the from-scratch computation
    for n in (1, 2, 3, 4, 6, 8, 10):
        assert compute_conway_poly(n) == CONWAY_POLY_2[n]


def test_conway_table_degrees():
    assert sorted(CONWAY_POLY_2) == list(range(1, 21))
    for n, poly in CONWAY_POLY_2.items():
        assert poly >> n == 1  # monic of the right degree


@pytest.mark.parametrize("f,delta", [(1, 2), (2, 1), (2, 2), (4, 1)])
def test_field_axioms_exhaustive(f, delta):
    fld = make_field(f, delta)
    elems = range(fld.size)
    for a in elems:
        assert fld.add(a, a) == 0
        assert fld.mul(a, 1) == a
        assert fld.sqr(a) == fld.mul(a, a)
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert fld.mul(a, b) == fld.mul(b, a)
            # Frobenius is additive: (a+b)^2 = a^2 + b^2
            assert fld.sqr(fld.add(a, b)) == fld.add(fld.sqr(a), fld.sqr(b))


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=300)
def test_distributivity_gf256(a, b, c):
    fld = make_field(8)
    assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@given(st.integers(min_value=1, max_value=255), st.integers(min_value=0, max_value=510))
@settings(max_examples=200)
def test_pow_matches_repeated_mul(a, e):
    fld = make_field(8)
    acc = 1
    for _ in range(e):
        acc = fld.mul(acc, a)
    assert fld.pow(a, e) == acc


def test_generator_has_full_order():
    for f in (1, 2, 3, 4, 5):
        fld = make_field(f)
        assert fe_order(gen(fld)) == fld.size - 1


def test_fe_order_divides_group_order():
    fld = make_field(4)
    for bits in range(1, fld.size):
        assert (fld.size - 1) % fe_order(fe(fld, bits)) == 0


def test_frobenius_fixed_field():
    # GF(2^4): fixed points of x -> x^4 are exactly the GF(4) image
    fld = make_field(2, 2)
    fixed = {a.bits for a in (fe(fld, b) for b in range(fld.size)) if frobenius(a, 2) == a}
    assert fixed == set(subfield_image(fld))
    assert len(fixed) == 4


def test_embedding_is_a_ring_hom():
    small = make_field(3)
    for xb in range(small.size):
        for yb in range(small.size):
            x, y = fe(small, xb), fe(small, yb)
            assert embed(x * y) == embed(x) * embed(y)
            assert embed(x + y) == embed(x) + embed(y)


def test_embedding_norm_compatible():
    # the image of the small generator is the norm-section power of the big
    # generator, and norms of embedded elements stay in the subfield image
    for f in (2, 3, 4):
        small = make_field(f)
        big = make_field(f, 2)
        q = small.size
        expected = big.pow(2, (big.size - 1) // (q - 1))
        assert embed(gen(small)).bits == expected
        image = subfield_image(big)
        for xb in range(1, q):
            img = embed(fe(small, xb)).bits
            assert big.mul(img, big.pow(img, q)) in image


def test_zero_one():
    fld = make_field(5)
    assert zero(fld).bits == 0 and one(fld).bits == 1
    with pytest.raises(FieldError):
        fe(fld, fld.size)


def test_field_for_maps_q_and_epsilon():
    assert field_for(4, 1) == make_field(2, 1)
    assert field_for(4, -1) == make_field(2, 2)
    for q, epsilon in [(6, 1), (1, 1), (0, -1), (2**21, 1), (2**11, -1)]:
        with pytest.raises(FieldError):
            field_for(q, epsilon)


@pytest.mark.parametrize("q,epsilon", [(2, 1), (4, 1), (8, 1), (2, -1), (4, -1), (8, -1)])
def test_central_scalars_form_the_order_n_subgroup(q, epsilon):
    fld = field_for(q, epsilon)
    n = q - epsilon
    scalars = central_scalars(fld, n)
    assert len(set(scalars)) == n
    assert all(fld.pow(c, n) == 1 for c in scalars)


def test_central_scalars_reject_a_missing_subgroup():
    with pytest.raises(FieldError):
        central_scalars(make_field(2), 5)  # 5 does not divide 4 - 1
