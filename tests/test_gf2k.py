"""Field arithmetic: every stored Conway polynomial re-derived, axioms,
Frobenius, the centre, the log/exp and product tables against the
bit-serial reference of gf2k_reference, the Euclid inverse against
Fermat's a^(size-2), and field_for as the one check of (epsilon, q) behind
every layer."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e1forge.autos import (
    canonical_torus_rep,
    enumerate_torus,
    identity_mu_order,
    make_word,
    torus_element_order,
    verify_order_bound,
)
from e1forge.gf2k import (
    CONWAY_POLY_2,
    MAX_DEGREE,
    TABLE_MAX_DEGREE,
    FieldError,
    FieldSpec,
    _clmul_rows,
    _wide_tables,
    central_scalars,
    field_for,
    log_exp_tables,
    make_field,
)
from e1forge.polyfield import x_plus
from e1forge.semisimple import SemisimpleClass, palindromic_element, semisimple_class
from gf2k_reference import compute_conway_poly, factor_small, mul_bits, pow_bits

SRC = Path(__file__).resolve().parents[1] / "src"


def test_conway_table_rederives():
    # every stored entry must agree with the from-scratch computation, so
    # each is proven primitive, hence irreducible (the Euclid inverse needs it)
    for n in range(1, MAX_DEGREE + 1):
        assert compute_conway_poly(n) == CONWAY_POLY_2[n], n


def test_conway_table_degrees():
    assert sorted(CONWAY_POLY_2) == list(range(1, 21))
    for n, poly in CONWAY_POLY_2.items():
        assert poly >> n == 1  # monic of the right degree


@pytest.mark.parametrize("f,delta", [(1, 2), (2, 1), (2, 2), (4, 1)])
def test_field_axioms_exhaustive(f, delta):
    fld = make_field(f, delta)
    elems = range(fld.size)
    for a in elems:
        assert fld.mul(a, 1) == a
        assert fld.sqr(a) == fld.mul(a, a)
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert fld.mul(a, b) == fld.mul(b, a)
            # Frobenius is additive: (a+b)^2 = a^2 + b^2
            assert fld.sqr(a ^ b) == fld.sqr(a) ^ fld.sqr(b)


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=300)
def test_distributivity_gf256(a, b, c):
    fld = make_field(8)
    assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)


@given(st.integers(min_value=1, max_value=255), st.integers(min_value=0, max_value=510))
@settings(max_examples=200)
def test_pow_matches_repeated_mul(a, e):
    fld = make_field(8)
    acc = 1
    for _ in range(e):
        acc = fld.mul(acc, a)
    assert fld.pow(a, e) == acc


def test_generator_has_full_order():
    # x is primitive for every Conway degree (central_scalars relies on it);
    # in GF(2), x = 1 is the only nonzero element
    for n in CONWAY_POLY_2:
        fld = make_field(n)
        x = 2 if n > 1 else 1
        top = fld.size - 1
        assert fld.pow(x, top) == 1
        assert all(fld.pow(x, top // p) != 1 for p in factor_small(top))


def test_frobenius_fixed_field():
    # GF(2^4): fixed points of a -> a^4 are exactly the GF(4) image, zero
    # and the order-3 subgroup
    fld = make_field(2, 2)
    fixed = {a for a in range(fld.size) if fld.pow(a, 4) == a}
    assert fixed == {0, *central_scalars(fld, 3)}
    assert len(fixed) == 4


def test_zero_one():
    fld = make_field(5)
    for a in range(fld.size):
        assert fld.mul(a, 0) == 0 and fld.mul(a, 1) == a
    assert fld.pow(0, 0) == 1 and fld.pow(0, 3) == 0
    with pytest.raises(FieldError):
        fld.inv(0)
    with pytest.raises(FieldError):
        fld.pow(0, -1)


def test_field_for_maps_q_and_epsilon():
    assert field_for(4, 1) == make_field(2, 1)
    assert field_for(4, -1) == make_field(2, 2)
    bad = [(6, 1), (1, 1), (0, -1), (2**21, 1), (2**11, -1), (4, 0), (4, 2)]
    for q, epsilon in bad:
        with pytest.raises(FieldError):
            field_for(q, epsilon)


# every entry point that takes (epsilon, q) and builds its field through field_for
GROUP_ENTRY_POINTS = {
    # xi = None: the class checks (epsilon, q) before it reads xi
    "SemisimpleClass": lambda e, q: SemisimpleClass(e, 1, q, None),
    "semisimple_class": lambda e, q: semisimple_class(e, 1, q, x_plus(make_field(2), 1)),
    "palindromic_element": lambda e, q: palindromic_element(3, q, e, 1),
    "make_word": lambda e, q: make_word(2, q, e, (1, 1)),
    "canonical_torus_rep": lambda e, q: canonical_torus_rep((1, 2), q, e),
    "enumerate_torus": lambda e, q: enumerate_torus(2, q, e),
    "torus_element_order": lambda e, q: torus_element_order((1, 2), q, e),
    "identity_mu_order": lambda e, q: identity_mu_order((0, 1), q, e),
    "verify_order_bound": lambda e, q: verify_order_bound(2, q, e),
}


@pytest.mark.parametrize("epsilon,q", [(0, 4), (2, 4), (1, 6), (-1, 6)])
@pytest.mark.parametrize("name", sorted(GROUP_ENTRY_POINTS))
def test_bad_epsilon_or_q_raises_field_error_everywhere(name, epsilon, q):
    with pytest.raises(FieldError):
        GROUP_ENTRY_POINTS[name](epsilon, q)


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


def pow_reference(fld, a, e):
    """a^e through the bit-serial path only: a negative e inverts first."""
    mod = fld.defining_poly
    if e < 0:
        a, e = pow_bits(mod, a, fld.size - 2), -e
    return pow_bits(mod, a, e)


def exponents(top):
    # zero, small, around and beyond the group order, and negative
    return (0, 1, 2, top - 1, top, top + 1, 2 * top + 3, 5 * top - 1, -1, -2, -top, -top - 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_tables_match_bit_serial_exhaustive(n):
    fld = make_field(n)
    mod, top = fld.defining_poly, fld.size - 1
    for a in range(fld.size):
        assert [fld.mul(a, b) for b in range(fld.size)] == [
            mul_bits(mod, a, b) for b in range(fld.size)
        ]
        if a:
            assert fld.inv(a) == pow_bits(mod, a, top - 1)
            for e in exponents(top):
                assert fld.pow(a, e) == pow_reference(fld, a, e), (a, e)


@pytest.mark.parametrize("n", range(9, MAX_DEGREE + 1))
def test_tables_match_bit_serial_sampled(n):
    fld = make_field(n)
    mod, top = fld.defining_poly, fld.size - 1
    rng = random.Random(n)
    for _ in range(300):
        a, b = rng.randrange(fld.size), rng.randrange(fld.size)
        assert fld.mul(a, b) == mul_bits(mod, a, b)
        assert fld.sqr(a) == mul_bits(mod, a, a)
        if a:
            assert fld.inv(a) == pow_bits(mod, a, top - 1)
            e = rng.choice(exponents(top)) + rng.randrange(-top, top)
            assert fld.pow(a, e) == pow_reference(fld, a, e), (a, e)


def test_tables_only_up_to_the_cut_off():
    for n in CONWAY_POLY_2:
        assert (make_field(n)._tables is None) == (n > TABLE_MAX_DEGREE)
    # fields of one degree share one entry: GF(16) as (4, 1) and (2, 2)
    assert make_field(4, 1)._tables is make_field(2, 2)._tables is log_exp_tables(4)
    log, exp = log_exp_tables(TABLE_MAX_DEGREE)
    assert len(log) * log.itemsize + len(exp) * exp.itemsize <= 800_000
    with pytest.raises(FieldError):
        log_exp_tables(MAX_DEGREE + 1)


@pytest.mark.parametrize("n", range(TABLE_MAX_DEGREE + 1, MAX_DEGREE + 1))
def test_tables_above_the_cut_off_match_bit_serial_sampled(n):
    # FieldSpec multiplies through the product tables here; these tables
    # serve the torus arithmetic
    fld = make_field(n)
    mod, top = fld.defining_poly, fld.size - 1
    log, exp = log_exp_tables(n)
    assert (len(log), len(exp), log.itemsize) == (top + 1, top, 4)
    # whole tables: log inverts exp at every index, so exp repeats no
    # element; with no 0 and none above top, it lists each nonzero one once
    assert list(map(log.__getitem__, exp)) == list(range(top))
    assert 0 not in exp and max(exp) == top
    rng = random.Random(n)
    for _ in range(300):
        a, b = rng.randrange(1, fld.size), rng.randrange(1, fld.size)
        assert exp[log[a]] == a
        assert exp[(log[a] + log[b]) % top] == mul_bits(mod, a, b)
        assert exp[-log[a] % top] == pow_bits(mod, a, top - 1)
        e = rng.randrange(-top, 2 * top)
        assert exp[log[a] * e % top] == pow_reference(fld, a, e), (a, e)


def test_product_rows_match_bit_serial_exhaustive():
    # no reduction below degree 15, so GF(2^17) multiplies carry-less there
    rows, mod = _clmul_rows(), CONWAY_POLY_2[17]
    assert len(rows) == 256 and {len(row) for row in rows} == {256}
    for a in range(256):
        assert list(rows[a]) == [mul_bits(mod, a, b) for b in range(256)], a


@pytest.mark.parametrize("n", range(TABLE_MAX_DEGREE + 1, MAX_DEGREE + 1))
def test_reduction_and_square_tables_match_bit_serial(n):
    fld = make_field(n)
    mod = fld.defining_poly
    m, mask, rows, r0, r1, s0, s1 = _wide_tables(n)
    assert (m, mask, rows) == (n, fld.size - 1, _clmul_rows())
    assert (len(r0), len(r1), len(s0), len(s1)) == (1024, 1 << n - 11, 1024, 1 << n - 10)
    xn = mod ^ fld.size  # x^n reduced
    # every entry, so every basis image: r0, r1 map high bits i of a product
    # to x^(n + i), x^(n + 10 + i); s0, s1 square the low and high bits
    assert list(r0) == [mul_bits(mod, i, xn) for i in range(1024)]
    assert list(r1) == [mul_bits(mod, i << 10, xn) for i in range(len(r1))]
    assert list(s0) == [mul_bits(mod, i, i) for i in range(1024)]
    assert list(s1) == [mul_bits(mod, i << 10, i << 10) for i in range(len(s1))]


def test_tables_are_not_built_at_import():
    code = (
        "import e1forge.cli\n"
        "from e1forge import gf2k\n"
        "print(gf2k.log_exp_tables.cache_info().currsize"
        " + gf2k._wide_tables.cache_info().currsize"
        " + gf2k._clmul_rows.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out.strip() == "0"


def test_bit_serial_reference_on_a_reducible_modulus():
    # the reference reduces modulo whatever it is given, Conway or not:
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2, so x^2 + x + 1 is a zero divisor
    assert mul_bits(0b10101, 0b111, 0b111) == 0
    # (x^2 + x + 1)(x^15 + x + 1): reducible, of degree 17, not Conway
    zero_divisor, cofactor = 0b111, (1 << 15) | 0b11
    modulus = 0
    for i in range(3):
        if zero_divisor >> i & 1:
            modulus ^= cofactor << i
    assert mul_bits(modulus, zero_divisor, cofactor) == 0
    assert make_field(17).mul(zero_divisor, cofactor) != 0


@pytest.mark.parametrize("n", range(TABLE_MAX_DEGREE + 1, MAX_DEGREE + 1))
def test_euclid_inverse_matches_fermat_sampled(n):
    fld = make_field(n)
    rng = random.Random(n)
    for a in [1, 2, fld.size - 1] + [rng.randrange(1, fld.size) for _ in range(200)]:
        inv = fld.inv(a)
        assert inv == pow_bits(fld.defining_poly, a, fld.size - 2), a
        assert mul_bits(fld.defining_poly, a, inv) == 1


def test_field_constants_are_cached_and_leave_equality_alone():
    fld = FieldSpec(3, 2)  # a fresh instance, not make_field's
    names = {"degree", "size", "defining_poly"}
    assert not names & vars(fld).keys()
    assert (fld.degree, fld.size, fld.defining_poly) == (6, 64, CONWAY_POLY_2[6])
    assert names <= vars(fld).keys()
    assert fld == make_field(3, 2) and hash(fld) == hash(make_field(3, 2))
    assert fld != make_field(6, 1)  # one field, another place in the tower
