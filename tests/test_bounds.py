"""Group orders, exact product estimates, and inequality certificates."""

import pytest
from dataclasses import replace
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from e1forge.bounds import (
    BoundsError,
    certify,
    certify_all,
    eval_poly,
    gl_order,
    group_order,
    gu_order,
    load_registry,
    mg,
    odd_part,
    order_estimate_check,
    parse_expression,
    parse_range,
    replay_witness,
    RELATIONS,
)
import certify_reference as reference


def odd_part_by_halving(n):
    """Reference: divide out 2 while n is even (n >= 1)."""
    while n % 2 == 0:
        n //= 2
    return n


def test_odd_part():
    assert odd_part(1) == 1
    assert odd_part(96) == 3
    assert odd_part(181440) == 2835
    assert odd_part(2**40 * 3**5) == 3**5


@given(st.integers(min_value=1, max_value=2**200))
def test_odd_part_matches_halving(n):
    assert odd_part(n) == odd_part_by_halving(n)
    assert odd_part(n << 37) == odd_part_by_halving(n)


@pytest.mark.parametrize("n", [0, -1, -96])
def test_odd_part_refuses_n_below_1(n):
    # 0 has no odd part: halving it never stops
    with pytest.raises(BoundsError, match="odd part needs n >= 1"):
        odd_part(n)


def test_gl_small_orders():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 4) == 180
    assert gl_order(3, 2) == 168
    assert gl_order(3, 4) == 181440


def test_gu_small_orders():
    assert gu_order(2, 2) == 18
    assert gu_order(2, 4) == 300
    assert gu_order(3, 2) == 648


def test_projective_unitary_order():
    assert group_order("PGU", 3, 4) == 62400
    assert group_order("PGL", 3, 4) == 181440 // 3
    assert group_order("SU", 3, 2) == 648 // 3


def test_group_order_rejects_bad_input():
    with pytest.raises(BoundsError):
        group_order("GL", 2, 6)
    with pytest.raises(BoundsError):
        group_order("GO", 2, 4)


def test_order_estimate_grid():
    for a in range(2, 65):
        for m in range(2, 21):
            assert order_estimate_check(a, m)


def test_order_estimate_rational_base():
    assert order_estimate_check(Fraction(5, 2), 6)


def test_mg_table():
    assert mg("E6", 2).value == 2**48
    assert mg("PSL", 16, d=3).value == 62401
    assert mg("PSL", 4, d=3).value == 4**4
    assert mg("PSL", 4, d=3, epsilon=-1).value == 4**4 + 4**3
    assert mg("PSL", 8, d=5).value == 8**15
    assert mg("PO8+", 4).value == 4**14 + 4**12
    with pytest.raises(BoundsError):
        mg("PSL", 4, d=4)


def test_expression_parser():
    assert parse_expression("q^2") == {(2, 0): 1}
    assert parse_expression("3q^26+12q^24") == {(26, 0): 3, (24, 0): 12}
    assert parse_expression("2f(q+1)^2") == {(2, 1): 2, (1, 1): 4, (0, 1): 2}
    assert parse_expression("q^3-2q^2") == {(3, 0): 1, (2, 0): -2}
    assert parse_expression("(6f-1)^2") == {(0, 2): 36, (0, 1): -12, (0, 0): 1}


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=50)
def test_eval_poly_matches_direct(f):
    q = 2**f
    poly = parse_expression("q^3(q-1) - 7f + 2")
    assert eval_poly(poly, f) == q**3 * (q - 1) - 7 * f + 2


def test_certify_finite_range():
    cert = certify("t", "q^2", ">", "q", 1, 10)
    assert cert.status == "verified"
    cert = certify("t", "q", ">", "q^2", 1, 10)
    assert cert.status == "failed"
    with pytest.raises(BoundsError):  # an empty range checks nothing
        certify("t", "q", "<", "q", 5, 3)


def test_certify_tail_with_witness():
    cert = certify("t", "q^2", ">", "64q", 7, None)
    assert cert.status == "verified"
    assert "f0" in cert.witness
    assert replay_witness(cert)


def test_certify_tail_unprovable():
    # equal leading terms: the difference has no dominating term
    cert = certify("t", "q^2", ">", "q^2-1", 1, None)
    assert cert.status in ("verified", "tail-unproved")
    cert = certify("t", "q", ">", "q^2", 1, None)
    assert cert.status in ("failed", "tail-unproved")


def test_tail_witness_needs_ratio_growth():
    # 2q^2 - qf^3: at f0 = 1 the leading share beats 2|c|, but the ratio
    # 2^f / f^3 falls until f = 4, and the inequality fails at f = 2
    cert = certify("t", "2q^2", ">", "qf^3", 1, None)
    assert cert.witness["f0"] == 10 and cert.status == "failed"
    assert not replay_witness(cert)


def test_replay_rejects_tampered_witness():
    cert = certify("t", "q^3", ">", "5q^2+fq", 3, None)
    assert cert.status == "verified" and replay_witness(cert)
    bad = type(cert)(
        cert.id, "q^3", ">", "5q^2+fq+q^3", cert.range_start, None,
        cert.status, cert.witness, cert.anchor,
    )
    assert not replay_witness(bad)
    # stored terms equal to the difference q^3 + 5q^2, but the stored lead
    # is not the top term (the two-copy replay raised on the negative shift)
    cert = certify("t", "q^3+5q^2", ">", "0", 1, None)
    assert cert.status == "verified" and replay_witness(cert)
    witness = {"f0": cert.witness["f0"], "leading": [2, 0, "5"], "terms": [[3, 0, "1"]]}
    bad = replace(cert, witness=witness)
    assert not replay_witness(bad)
    with pytest.raises(ValueError):
        reference.replay_witness(bad)
    # a crossover below f = 1, where f^-1 divides by zero
    cert = certify("t", "q^2", ">", "fq", 1, None)
    bad = replace(cert, witness={**cert.witness, "f0": 0})
    assert replay_witness(cert) and not replay_witness(bad)
    with pytest.raises(ZeroDivisionError):
        reference.replay_witness(bad)


def _render(terms) -> str:
    """c q^e f^j terms as an expression string, signs between terms."""
    out = ""
    for c, e, j in terms:
        out += ("-" if c < 0 else "+" if out else "") + str(abs(c))
        out += (f"q^{e}" if e else "") + (f"f^{j}" if j else "")
    return out


_TERMS = st.lists(
    st.tuples(
        st.integers(-2000, 2000).filter(bool),
        st.integers(0, 6),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=4,
)


@given(
    _TERMS,
    _TERMS,
    st.sampled_from(RELATIONS),
    st.integers(1, 30),
    st.one_of(st.none(), st.integers(0, 10)),
)
@settings(max_examples=2000, deadline=None)
def test_certify_matches_two_copy_reference(lhs, rhs, rel, start, width):
    # status and witness from one shared dominance predicate equal the
    # two-copy search's, and replay agrees, also at f0 +- 1
    lhs, rhs = _render(lhs), _render(rhs)
    end = None if width is None else start + width
    cert = certify("g", lhs, rel, rhs, start, end)
    assert cert == reference.certify("g", lhs, rel, rhs, start, end)
    assert replay_witness(cert) == reference.replay_witness(cert)
    if cert.witness.get("f0", 0) > 1:
        for f0 in (cert.witness["f0"] - 1, cert.witness["f0"] + 1):
            moved = replace(cert, witness={**cert.witness, "f0": f0})
            assert replay_witness(moved) == reference.replay_witness(moved)


def test_parse_range():
    assert parse_range("7..19") == (7, 19)
    assert parse_range("21+") == (21, None)
    assert parse_range("7 .. 19") == (7, 19)
    assert parse_range("1..1024") == (1, 1024)
    for bad in ("7", "a..3", "1..2..3", "1..1025", "1025+", "1" * 5000 + "+"):
        with pytest.raises(BoundsError):
            parse_range(bad)


def test_expression_limits():
    assert parse_expression("q^1000") == {(1000, 0): 1}
    assert parse_expression("9" * 4000) == {(0, 0): int("9" * 4000)}
    assert parse_expression("q^500 f^500") == {(500, 500): 1}
    assert len(parse_expression("(q+f)^100")) == 101
    for bad in ("q^1001", "q^" + "9" * 5000, "9" * 5000):
        with pytest.raises(BoundsError):
            parse_expression(bad)
    # every product is bounded: total degree, term pairs, coefficient bits
    for bad in ("q^500 f^501", "(q^2)^501", "((q+f)^40)^40", "(q+f+1)^100",
                "(2^1000)^200"):
        with pytest.raises(BoundsError):
            parse_expression(bad)


def _outcome(parse, text):
    """The items in key order (a witness lists its terms in it), or the
    refusal message."""
    try:
        return list(parse(text).items())
    except BoundsError as err:
        return str(err)


# one-term bases take the closed form; the limits bind at degree 1000 and
# at 100,000 coefficient bits; 2^1000 has 1001 bits and 3^60 96, and
# (2^100)^999 passes the limits but not the closed form's bound 999 * 101
POWER_EDGES = [
    "q^1000", "q^500 f^500", "q^500 f^501", "(q^2)^500", "(q^2)^501",
    "(2^1000)^99", "(2^1000)^100", "(2^1000)^200", "(-2^1000)^99",
    "(2^100)^999", "(2^100)^1000",
    "((3^60)^17)^61", "((3^60)^17)^62", "(q^2 2^1000)^99", "(f 2^1000)^100",
    "0^0", "0^7", "(q-q)^3", "(-1)^999", "(-q)^7", "(q^0)^1000", "1^1000",
    "(q+f)^100", "(q+f+1)^47", "(q+f+1)^48", "(q+f+1)^100", "((q+f)^40)^40",
    "(q^3-2q^2)^2", "(2q-2)^3(q+1)^2", "q^", "q^f", "(q^2)^1001",
    # the literal 0 is one term and 0^2 none, so times these 4097 terms they
    # make 4097 term pairs or none
    "0((q+1)^64(f+1)^62+q^200+q^201)", "0^2((q+1)^64(f+1)^62+q^200+q^201)",
]


@pytest.mark.parametrize("text", POWER_EDGES, ids=range(len(POWER_EDGES)))
def test_powers_match_the_product_parser_at_the_limits(text):
    assert _outcome(parse_expression, text) == _outcome(
        reference.parse_by_products, text
    )


_BASES = st.one_of(
    st.sampled_from(["q", "f", "0", "1", "2", "3", "(q^2f)", "(-7f^3)"]),
    st.integers(0, 2**80).map(str),
    st.builds(
        "({}q^{}f^{})".format,
        st.integers(-99, 99),
        st.integers(0, 9),
        st.integers(0, 9),
    ),
)
_EXPONENTS = st.one_of(st.integers(0, 12), st.integers(0, 1000))


@given(
    st.lists(st.tuples(_BASES, _EXPONENTS, st.integers(0, 3)), min_size=1, max_size=3),
    _TERMS,
    st.integers(0, 6),
)
@settings(max_examples=200, deadline=None)
def test_powers_match_the_product_parser(powers, terms, m):
    # nested powers of one-term bases, times a multi-term base to a small
    # power: accepted ones give the same items in the same order, refused
    # ones the same message
    factors = []
    for base, n, nest in powers:
        for _ in range(nest):
            base = f"({base}^{n % 3 + 1})"
        factors.append(f"{base}^{n}")
    text = " ".join(factors) + f"({_render(terms)})^{m}"
    assert _outcome(parse_expression, text) == _outcome(
        reference.parse_by_products, text
    )


def test_registry_all_entries_verify():
    certs = certify_all()
    assert len(certs) >= 15
    for cert in certs:
        assert cert.status == "verified", cert.id
        if cert.range_end is None:
            assert replay_witness(cert), cert.id


# each relation's negation: a verified entry must fail or go unproved
NEGATION = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}


def test_registry_mutations_are_caught():
    # flipping any entry's relation changes its status, and a tail witness
    # with any stored coefficient raised by one no longer replays
    tails = []
    for entry in load_registry():
        cert_id, lhs, rel, rhs, *rest = entry
        flipped = certify(cert_id, lhs, NEGATION[rel], rhs, *rest)
        assert flipped.status != "verified", cert_id
        cert = certify(*entry)
        if cert.range_end is None:
            tails.append(cert)
    assert tails
    for cert in tails:
        witness = cert.witness
        stored = [witness["leading"], *witness["terms"]]
        for i in range(len(stored)):
            bumped = [
                [e, j, str(int(c) + (k == i))] for k, (e, j, c) in enumerate(stored)
            ]
            tampered = {**witness, "leading": bumped[0], "terms": bumped[1:]}
            assert not replay_witness(replace(cert, witness=tampered)), (cert.id, i)


def test_group_order_ceilings():
    # |GL_d(q)| <= q^{d^2}; |GU_d(q)| <= q^{d^2+1/2} for q >= 4 (squared to
    # stay exact) and <= q^{d^2+2} for q = 2
    for q in (2, 4, 8):
        for d in range(1, 13):
            assert gl_order(d, q) <= q ** (d * d)
            gu = gu_order(d, q)
            # the uniform rational ceiling (1 - 1/q - 1/q^2)^{-1} q^{d^2}
            assert gu * (q * q - q - 1) <= q ** (d * d + 2)
            if q >= 4:
                assert gu**2 <= q ** (2 * d * d + 1)
            else:
                assert gu <= q ** (d * d + 2)


def test_registry_contains_required_entries():
    ids = {e[0] for e in load_registry()}
    assert "psu3-deg-gap" in ids  # the 7..19 finite window
    assert "psu3-tail" in ids  # the integerized f >= 21 tail
    assert "e6-class321-bulk" in ids
