"""Torus automorphism words: composition, powers, and order divisibility."""

import random

import autos_reference as reference
import pytest
from autos_reference import apply_mu_diagonal, canonical_by_centre_scan

from e1forge.autos import (
    AutoError,
    _mu_logs,
    auto_order,
    canonical_torus_rep,
    compose,
    enumerate_torus,
    identity_mu_order,
    make_word,
    naive_power,
    random_word,
    torus_element_order,
    twisted_norm,
    verify_order_bound,
)
from e1forge.gf2k import central_scalars, field_for

CRITERION_7 = [(3, 4, 1), (3, 2, -1), (4, 4, 1)]
# the bench's formulas workload draws its words from these groups
WORD_GROUPS = [(3, 4, 1), (3, 2, -1), (4, 2, 1), (2, 4, -1)]


def test_identity_word_is_identity():
    for d, q, eps in [(3, 4, 1), (3, 2, -1), (4, 4, 1)]:
        assert reference.is_identity(reference.identity_word(d, q, eps))
        assert auto_order(reference.identity_word(d, q, eps)) == 1


def test_canonical_rep_collapses_central_orbit():
    # scalar multiples of a diagonal share one canonical representative
    assert canonical_torus_rep((2, 3, 1), 4, 1) == canonical_torus_rep(
        (3, 1, 2), 4, 1
    )


@pytest.mark.parametrize(
    "d,q,epsilon",
    CRITERION_7 + [(3, 16, 1), (2, 8, -1), (5, 4, -1), (3, 256, 1), (2, 1024, 1)],
)
def test_canonical_rep_matches_centre_scan_on_torus(d, q, epsilon):
    # every torus diagonal is a central multiple of a canonical one
    rng = random.Random(d * 1000 + q * 10 + epsilon)
    fld = field_for(q, epsilon)
    centre = central_scalars(fld, q - epsilon)
    for _ in range(200):
        rep, c = random_word(d, q, epsilon, rng).t, rng.choice(centre)
        t = tuple(fld.mul(c, a) for a in rep)
        assert canonical_torus_rep(t, q, epsilon) == rep
        assert canonical_by_centre_scan(t, q, epsilon) == rep


@pytest.mark.parametrize(
    "q,epsilon", [(2, 1), (4, 1), (8, 1), (2, -1), (4, -1), (256, 1), (1024, 1)]
)
def test_canonical_rep_matches_centre_scan_on_flat_matrices(q, epsilon):
    # the oracle's projective quotients pass flat 3x3 matrices, whose
    # leading entries may be zero
    rng = random.Random(q * 10 + epsilon)
    fld = field_for(q, epsilon)
    for _ in range(300):
        lead = rng.randrange(9)
        m = (0,) * lead + tuple(
            rng.choice((0, rng.randrange(1, fld.size))) for _ in range(9 - lead)
        )
        rep = canonical_torus_rep(m, q, epsilon)
        assert rep == canonical_by_centre_scan(m, q, epsilon)
        assert rep == reference.canonical_torus_rep(m, q, epsilon)
    assert canonical_torus_rep((0,) * 9, q, epsilon) == (0,) * 9
    assert canonical_by_centre_scan((0,) * 9, q, epsilon) == (0,) * 9


def assert_matches_reference(w1, w2, powers):
    """compose, twisted_norm, naive_power and the canonical form on logs
    equal the per-entry reference."""
    q, epsilon = w1.q, w1.epsilon
    assert compose(w1, w2) == reference.compose(w1, w2)
    assert reference.canonical_torus_rep(w1.t, q, epsilon) == w1.t
    for l in powers:
        p = twisted_norm(w1, l)
        assert p == reference.twisted_norm(w1, l)
        assert naive_power(w1, l) == reference.naive_power(w1, l) == p


@pytest.mark.parametrize("d,q,epsilon", WORD_GROUPS + CRITERION_7)
def test_log_arithmetic_matches_reference(d, q, epsilon):
    rng = random.Random(d * 100 + q * 10 + epsilon)
    for _ in range(20):
        w1, w2 = random_word(d, q, epsilon, rng), random_word(d, q, epsilon, rng)
        assert_matches_reference(w1, w2, range(1, 25))
        assert torus_element_order(w1.t, q, epsilon) == (
            reference.torus_element_order(w1.t, q, epsilon)
        )


@pytest.mark.parametrize(
    "d,q,epsilon", [(2, 512, -1), (2, 1024, -1), (3, 1 << 17, 1), (2, 1 << 20, 1)]
)
def test_log_arithmetic_matches_reference_on_large_fields(d, q, epsilon):
    # the fields of degree 17..20 use the 32-bit tables
    rng = random.Random(q + epsilon)
    for _ in range(3):
        w1, w2 = random_word(d, q, epsilon, rng), random_word(d, q, epsilon, rng)
        assert_matches_reference(w1, w2, (1, 2, 5))


def s_period(word):
    """The multiplicative order r of s = +-2^b mod Q - 1, the factor by
    which mu scales the logs of a diagonal (negated when mu has iota)."""
    fld = word.field
    n = fld.size - 1
    s = pow(2, word.field_exp % fld.degree, n) * (-1) ** word.graph_exp % n
    r, power = 1, s
    while power != 1 % n:
        power, r = power * s % n, r + 1
    return r


@pytest.mark.parametrize(
    "d,q,epsilon", [(3, 1 << 17, 1), (2, 1 << 20, 1), (2, 512, -1), (3, 1024, -1)]
)
def test_closed_form_norm_matches_reference_around_the_period(d, q, epsilon):
    # the closed form reduces l by a period of s: compare it with the
    # iterated per-entry norm just below, at and above the period r of s,
    # and past two periods
    rng = random.Random(q * 3 + d + epsilon)
    f = field_for(q, epsilon).f
    mus = [(0, 0), (1, 0), (0, 1), (1, 1), (1, f - 1), (0, 2 * f - 1)]
    mus += [(rng.randrange(2), rng.randrange(2 * f)) for _ in range(2)]
    for a, b in mus:
        beta = make_word(d, q, epsilon, random_word(d, q, epsilon, rng).t, a, b)
        r = s_period(beta)
        for l in sorted({r - 1, r, r + 1, 2 * r + 1} - {0}):
            assert twisted_norm(beta, l) == reference.twisted_norm(beta, l), (a, b, l)


@pytest.mark.parametrize(
    "d,q,epsilon", WORD_GROUPS + [(4, 4, 1), (3, 1 << 17, 1), (2, 1024, -1)]
)
def test_twisted_norm_power_law(d, q, epsilon):
    # beta^(a+b) = beta^a o beta^b for exponents up to 10^6, a law that
    # needs neither the oracle nor the reference
    rng = random.Random(q * 5 + d + epsilon)
    for _ in range(40):
        beta = random_word(d, q, epsilon, rng)
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert twisted_norm(beta, a + b) == compose(
            twisted_norm(beta, a), twisted_norm(beta, b)
        )


@pytest.mark.parametrize(
    "q,epsilon", [(512, -1), (1024, -1), (1 << 17, 1), (1 << 20, 1)]
)
def test_canonical_rep_matches_reference_on_large_flat_matrices(q, epsilon):
    # fields of degree 17..20, where a whole-centre scan is too slow
    rng = random.Random(q * 10 + epsilon)
    fld = field_for(q, epsilon)
    for _ in range(30):
        lead = rng.randrange(9)
        m = (0,) * lead + tuple(
            rng.choice((0, rng.randrange(1, fld.size))) for _ in range(9 - lead)
        )
        assert canonical_torus_rep(m, q, epsilon) == reference.canonical_torus_rep(
            m, q, epsilon
        )


def test_trusted_words_equal_checked_words():
    # compose and twisted_norm skip make_word's checks; the checked path on
    # the same product gives the same word, and the exponents stay folded
    rng = random.Random(77)
    for _ in range(300):
        d, q, epsilon = rng.choice(
            CRITERION_7 + [(4, 2, 1), (2, 4, -1), (2, 8, -1), (5, 4, -1)]
        )
        w1, w2 = random_word(d, q, epsilon, rng), random_word(d, q, epsilon, rng)
        fld = field_for(q, epsilon)
        moved = apply_mu_diagonal(w1.mu(), w2.t, fld)
        product = tuple(fld.mul(a, b) for a, b in zip(w1.t, moved))
        w = compose(w1, w2)
        assert w == make_word(
            d,
            q,
            epsilon,
            product,
            w1.graph_exp + w2.graph_exp,
            w1.field_exp + w2.field_exp,
        )
        assert w == make_word(d, q, epsilon, w.t, w.graph_exp, w.field_exp)
        l = rng.randrange(2, 25)
        p = twisted_norm(w1, l)
        assert p == make_word(d, q, epsilon, p.t, p.graph_exp, p.field_exp)
        for word in (w, p):
            if epsilon == -1:
                assert word.graph_exp == 0 and 0 <= word.field_exp < 2 * fld.f
            else:
                assert word.graph_exp in (0, 1) and 0 <= word.field_exp < fld.f


def order_by_canonical_rep(t, q, epsilon):
    """Reference: the least n with t^n canonically equal to the identity."""
    fld = field_for(q, epsilon)
    one = canonical_by_centre_scan((1,) * len(t), q, epsilon)
    acc, n = t, 1
    while canonical_by_centre_scan(acc, q, epsilon) != one:
        acc = tuple(fld.mul(a, b) for a, b in zip(acc, t))
        n += 1
    return n


@pytest.mark.parametrize("d,q,epsilon", CRITERION_7)
def test_central_test_matches_canonical_identity(d, q, epsilon):
    one = canonical_by_centre_scan((1,) * d, q, epsilon)
    for t in enumerate_torus(d, q, epsilon):
        assert torus_element_order(t, q, epsilon) == order_by_canonical_rep(
            t, q, epsilon
        )
        word = make_word(d, q, epsilon, t)
        assert reference.is_identity(word) == (
            canonical_by_centre_scan(t, q, epsilon) == one
        )
        for l in (2, 3, 4):
            p = twisted_norm(word, l)
            assert reference.is_identity(p) == (
                canonical_by_centre_scan(p.t, q, epsilon) == one
            )


def test_make_word_rejects_bad_torus_entries():
    with pytest.raises(AutoError):
        make_word(3, 2, -1, (2, 1, 1))  # violates a_i * a_{d+1-i}^q = 1
    with pytest.raises(AutoError):
        make_word(3, 4, 1, (0, 1, 1))
    with pytest.raises(AutoError):
        make_word(0, 4, 1, ())  # no diagonal has d = 0 entries


def test_compose_matches_naive_power():
    rng = random.Random(11)
    for _ in range(20):
        w = random_word(3, 4, 1, rng)
        assert compose(w, w) == naive_power(w, 2)


@pytest.mark.parametrize(
    "d,q,epsilon", WORD_GROUPS + [(2, 1024, -1), (2, 1 << 20, 1)]
)
def test_naive_power_equals_iterated_compose(d, q, epsilon):
    # the public compose canonicalises at every step, naive_power once; every
    # mu, with l past 2 |mu| (|mu| divides 2 degree), so each residue of
    # k mod |mu| that naive_power reads its mu^k from comes round again
    rng = random.Random(q * 7 + d + epsilon)
    fld = field_for(q, epsilon)
    words = [random_word(d, q, epsilon, rng) for _ in range(3)]
    mus = [(a, b) for a in range(2) for b in range(fld.f)]
    mus = [(0, b) for b in range(2 * fld.f)] if epsilon == -1 else mus
    words += [make_word(d, q, epsilon, words[0].t, a, b) for a, b in mus]
    for beta in words:
        acc = beta
        for l in range(1, 4 * fld.degree + 2):
            assert naive_power(beta, l) == acc, (beta.mu(), l)
            acc = compose(acc, beta)


@pytest.mark.parametrize("d,q,epsilon", [(2, 1 << 20, 1), (2, 1024, -1)])
def test_naive_power_at_large_l_matches_closed_form(d, q, epsilon):
    # naive_power reduces its logs only once, at the end: after 10,000
    # factors they have grown far past Q - 1
    rng = random.Random(q + 10_000)
    f = field_for(q, epsilon).f
    mus = [(0, 0), (1, 0), (0, 1), (1, 1), (1, f - 1)]
    for a, b in mus + [(rng.randrange(2), rng.randrange(2 * f)) for _ in range(3)]:
        beta = make_word(d, q, epsilon, random_word(d, q, epsilon, rng).t, a, b)
        assert naive_power(beta, 10_000) == twisted_norm(beta, 10_000), (a, b)


def test_naive_power_is_independent_of_the_closed_form(monkeypatch):
    def closed_form(*args):
        raise AssertionError("naive_power used the closed form")

    def mu_logs_without_powers(*key):
        s, reverse, _ = _mu_logs(*key)
        return s, reverse, None

    monkeypatch.setattr("e1forge.autos.twisted_norm", closed_form)
    monkeypatch.setattr("e1forge.autos.auto_order", closed_form)
    monkeypatch.setattr("e1forge.autos._mu_logs", mu_logs_without_powers)
    rng = random.Random(17)
    for d, q, epsilon in WORD_GROUPS:
        for _ in range(5):
            w = random_word(d, q, epsilon, rng)
            for l in (1, 2, 7, 24):
                assert naive_power(w, l) == reference.naive_power(w, l)


def test_naive_power_caches_one_mu_per_folded_exponent():
    # mu^k for k < 1000 has at most 2f distinct folds in GU_2(1024)
    rng = random.Random(1024)
    beta = make_word(2, 1024, -1, random_word(2, 1024, -1, rng).t, 1, 1)
    before = _mu_logs.cache_info().currsize
    power = naive_power(beta, 1000)
    assert _mu_logs.cache_info().currsize - before <= 2 * field_for(1024, -1).f
    assert power == twisted_norm(beta, 1000)


@pytest.mark.parametrize("power", [naive_power, twisted_norm])
@pytest.mark.parametrize("l", [0, -1])
def test_powers_reject_nonpositive_exponents(power, l):
    with pytest.raises(AutoError, match="l must be >= 1"):
        power(make_word(3, 4, 1, (1, 2, 3), 1, 1), l)


@pytest.mark.parametrize("d,q,epsilon", [(3, 4, 1), (3, 2, -1), (4, 4, 1)])
def test_twisted_norm_equals_naive(d, q, epsilon):
    rng = random.Random(0xBEEF)
    words = [random_word(d, q, epsilon, rng) for _ in range(40)]
    for w in words:
        for l in (1, 2, 3, 7, 24):
            assert twisted_norm(w, l) == naive_power(w, l)


def test_twisted_norm_random_words_all_l():
    # the acceptance sweep: 1000 random words, every l <= 24
    rng = random.Random(2024)
    checked = 0
    for _ in range(1000):
        d, q, epsilon = rng.choice([(3, 4, 1), (3, 2, -1), (2, 4, -1), (4, 2, 1)])
        w = random_word(d, q, epsilon, rng)
        l = rng.randrange(1, 25)
        assert twisted_norm(w, l) == naive_power(w, l)
        checked += 1
    assert checked == 1000


@pytest.mark.parametrize("d,q,epsilon", [(3, 4, 1), (3, 2, -1), (4, 4, 1)])
def test_order_bound_divisibility(d, q, epsilon):
    report = verify_order_bound(d, q, epsilon)
    assert report["ok"], report["violations"]
    assert report["checked"]["a"] > 0
    assert report["checked"]["b"] > 0
    if epsilon == -1:
        assert report["checked"]["c"] > 0


@pytest.mark.parametrize(
    "d,q,epsilon", CRITERION_7 + [(4, 2, -1), (2, 16, 1), (3, 8, -1)]
)
def test_auto_order_matches_iterated_reference_on_order_bound_words(
    d, q, epsilon, monkeypatch
):
    # every word verify_order_bound builds: the closed form against composing
    # until the identity
    words = []
    monkeypatch.setattr(
        "e1forge.autos.auto_order", lambda w: words.append(w) or auto_order(w)
    )
    verify_order_bound(d, q, epsilon)
    assert words
    for w in words:
        assert auto_order(w) == reference.auto_order(w), w


def test_auto_order_matches_iterated_reference_on_random_words():
    rng = random.Random(16)
    groups = [(d, q, 1) for d in range(2, 6) for q in (2, 4, 8, 16, 32, 64)]
    groups += [(d, q, -1) for d in range(2, 6) for q in (2, 4, 8, 16)]
    for _ in range(1200):
        w = random_word(*rng.choice(groups), rng)
        assert auto_order(w) == reference.auto_order(w), w


@pytest.mark.parametrize("d,q,epsilon", CRITERION_7)
def test_order_bound_report_unchanged_by_iterated_reference(d, q, epsilon, monkeypatch):
    report = verify_order_bound(d, q, epsilon)
    monkeypatch.setattr("e1forge.autos.auto_order", reference.auto_order)
    assert verify_order_bound(d, q, epsilon) == report


def test_order_bound_requires_central_threes():
    with pytest.raises(AutoError):
        verify_order_bound(3, 2, 1)  # q - eps = 1, no 3 divides it
    with pytest.raises(AutoError):
        verify_order_bound(0, 4, 1)


def test_mu_order_values():
    # eps=+1: Z_2 x Z_f; eps=-1: Z_{2f} with iota folded to phi^f
    assert identity_mu_order((0, 0), 4, 1) == 1
    assert identity_mu_order((1, 0), 4, 1) == 2
    assert identity_mu_order((0, 1), 4, 1) == 2
    assert identity_mu_order((1, 1), 4, 1) == 2
    assert identity_mu_order((0, 1), 4, -1) == 4
    assert identity_mu_order((1, 0), 4, -1) == 2  # iota = phi^f, f = 2


def test_beta_order_parity_tracks_mu():
    # for odd-order t the order of ad_t o mu is even iff |mu| is even
    for t in enumerate_torus(3, 2, -1):
        if torus_element_order(t, 2, -1) % 2:
            for mu in [(0, b) for b in range(2)]:
                w = make_word(3, 2, -1, t, *mu)
                mu_ord = identity_mu_order(mu, 2, -1)
                if mu_ord % 2 == 0:
                    assert auto_order(w) % 2 == 0


def test_torus_enumeration_sizes():
    # eps=+1: (q-1)^d / (q-1) canonical reps; eps=-1: (q^2-1)^{d//2} * extra
    assert len(enumerate_torus(3, 4, 1)) == 9  # 27 diagonals / 3 scalars
    torus = enumerate_torus(3, 2, -1)
    # sigma-torus of GU_3(2): free entry in GF(4)*, middle in mu_3 => 9,
    # modulo the center mu_3
    assert len(torus) == 3
