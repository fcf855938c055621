"""Automorphism bookkeeping on the diagonal-torus model.

An automorphism word is ad_t composed with mu = iota^a phi^b, where t is a
diagonal torus element taken modulo the center, phi squares every entry,
and iota reverses the diagonal and inverts every entry.  For the unitary
case (epsilon = -1) the sigma-fixed torus consists of the diagonals with
a_i * a_{d+1-i}^q = 1 over GF(q^2); there iota acts as phi^f, so words
reduce to powers of phi modulo 2f.  Torus elements are stored as the
lexicographically least representative of their central-scalar orbit.

On the discrete logs L of the entries (gf2k's log/exp tables, at every
degree) a product is a sum of logs and the canonical form is one shift.
With n = Q - 1, mu reverses L if a is odd (R below) and multiplies it by
s = +-2^b mod n, negated for iota; compose, the law (ad_t o mu)(ad_t' o mu')
= ad_{t * mu(t')} o mu mu', is one pass L + s R(L').  Powers close up in
closed form: beta^l = ad_N o mu^l, and the twisted norm N = prod_{i<l} mu^i(t)
has the logs A L + B R(L), A and B the sums of s^j over the even and the odd
j < l (every j < l in A, and B = 0, for even a); s^(2 degree) = 1, so any l
costs O(degree).  Orders follow: mu^l = 1 iff r = |mu| divides l, so
|beta| = r * ord(N_r mod Z).  naive_power, the reference for the closed form,
iterates one factor at a time: mu^k depends on k only through k mod r, so
(s, R) is taken once per residue, each factor adds s R(L) to the logs in
place, and the logs are reduced once, in the canonical form (mu fixes the
centre).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .gf2k import FieldSpec, central_scalars, field_for, log_exp_tables


class AutoError(ValueError):
    """Raised for malformed words or unsupported parameters."""


@lru_cache(maxsize=None)
def _torus_logs(q: int, epsilon: int):
    """(field, log, exp, n, m, leads) for the torus of GL_d(q) or GU_d(q):
    the log/exp tables of GF(q^delta), n = Q - 1, and, since the centre is
    <x^m> with m = n / (q - epsilon), the central orbit of x^L is the log
    class L mod m; leads[r] is the log of the least element of class r (GL:
    m = 1 and leads = (0,), the lead becomes 1)."""
    fld = field_for(q, epsilon)
    log, exp = log_exp_tables(fld.degree)
    n = fld.size - 1
    m = n // (q - epsilon)
    orbits = memoryview(exp)
    return fld, log, exp, n, m, tuple(log[min(orbits[r:n:m])] for r in range(m))


@lru_cache(maxsize=None)
def _mu_logs(q: int, epsilon: int, graph_exp: int, field_exp: int):
    """(s, reverse, powers) for mu on logs, as in the module docstring; powers
    holds s^j mod n for j < 2 degree: whole periods of s, an even count."""
    fld, _, _, n, _, _ = _torus_logs(q, epsilon)
    reverse = graph_exp % 2 == 1
    s = (-1) ** reverse * pow(2, field_exp % fld.degree, n) % n
    return s, reverse, tuple(pow(s, j, n) for j in range(2 * fld.degree))


def _canonical_logs(logs, tables) -> tuple[int, ...]:
    """Shift the logs of a diagonal by the central scalar that takes the
    first entry to the least element of its central orbit."""
    _, _, exp, n, m, leads = tables
    shift = leads[logs[0] % m] - logs[0]
    return tuple(exp[(a + shift) % n] for a in logs)


def canonical_torus_rep(
    entries: tuple[int, ...], q: int, epsilon: int
) -> tuple[int, ...]:
    """Lexicographically least central-scalar multiple of the entries (a
    diagonal here, a flat matrix in the oracle's projective quotients).
    The order is decided at the first nonzero entry, whose central orbit is
    a log class; zero entries stay zero, and an all-zero tuple is fixed."""
    tables = _torus_logs(q, epsilon)
    if not any(entries):
        return (0,) * len(entries)
    scaled = iter(_canonical_logs([tables[1][a] for a in entries if a], tables))
    return tuple(next(scaled) if a else 0 for a in entries)


def unitary_diagonal(field: FieldSpec, q: int, front, mid) -> tuple[int, ...]:
    """The sigma-fixed diagonal front + mid + (a^-q for a in reversed(front))
    of the unitary torus; mid is empty for even d and one element of order
    dividing q + 1 for odd d."""
    back = (field.inv(field.pow(a, q)) for a in reversed(front))
    return (*front, *mid, *back)


def unitary_torus(field: FieldSpec, q: int, d: int):
    """Every sigma-fixed diagonal of the unitary torus, front-major."""
    mids = [(m,) for m in central_scalars(field, q + 1)] if d % 2 else [()]
    for front in itertools.product(range(1, field.size), repeat=d // 2):
        for mid in mids:
            yield unitary_diagonal(field, q, front, mid)


@dataclass(frozen=True)
class AutoWord:
    """ad_t o iota^graph_exp o phi^field_exp on the torus-mod-center model."""

    epsilon: int
    d: int
    q: int
    t: tuple[int, ...]
    graph_exp: int
    field_exp: int

    @property
    def field(self) -> FieldSpec:
        return field_for(self.q, self.epsilon)

    def mu(self) -> tuple[int, int]:
        return (self.graph_exp, self.field_exp)

    def mu_order(self) -> int:
        """Order of mu in the symmetry group of the model."""
        return identity_mu_order(self.mu(), self.q, self.epsilon)


def make_word(
    d: int, q: int, epsilon: int, entries, graph_exp: int = 0, field_exp: int = 0
) -> AutoWord:
    fld, log, _, n, _, _ = _torus_logs(q, epsilon)
    entries = tuple(int(a) for a in entries)
    if d < 1 or len(entries) != d:
        raise AutoError(f"need d >= 1 and d = {d} diagonal entries, got {len(entries)}")
    if any(not 0 < a < fld.size for a in entries):
        raise AutoError("diagonal entries must be nonzero field elements")
    logs = [log[a] for a in entries]
    # a_i * a_{d+1-i}^q = 1 on logs
    if epsilon == -1 and any((a + q * b) % n for a, b in zip(logs, logs[::-1])):
        raise AutoError(
            "diagonal is not in the unitary torus: need a_i * a_{d+1-i}^q = 1"
        )
    return _trusted_word(d, q, epsilon, logs, graph_exp, field_exp)


def _trusted_word(d, q, epsilon, logs, graph_exp, field_exp) -> AutoWord:
    """make_word without its checks, for the logs of a product of valid torus
    elements (which lies in the torus): same exponent fold and canonical form."""
    tables = _torus_logs(q, epsilon)
    mu = _fold_mu(tables[0], epsilon, graph_exp, field_exp)
    return AutoWord(epsilon, d, q, _canonical_logs(logs, tables), *mu)


def _fold_mu(fld: FieldSpec, epsilon: int, graph_exp: int, field_exp: int):
    """mu's exponents: GU folds iota into phi^f mod 2f, GL takes (mod 2, mod f)."""
    if epsilon == -1:
        return 0, (field_exp + fld.f * (graph_exp % 2)) % (2 * fld.f)
    return graph_exp % 2, field_exp % fld.f


def compose(w1: AutoWord, w2: AutoWord) -> AutoWord:
    """(ad_t o mu)(ad_t' o mu') = ad_{t * mu(t')} o mu mu': one pass L + s R(L')."""
    if (w1.epsilon, w1.d, w1.q) != (w2.epsilon, w2.d, w2.q):
        raise AutoError("cannot compose words over different groups")
    log = _torus_logs(w1.q, w1.epsilon)[1]
    s, reverse, _ = _mu_logs(w1.q, w1.epsilon, *w1.mu())
    moved = reversed(w2.t) if reverse else w2.t
    product = [log[x] + s * log[y] for x, y in zip(w1.t, moved)]
    graph_exp, field_exp = w1.graph_exp + w2.graph_exp, w1.field_exp + w2.field_exp
    return _trusted_word(w1.d, w1.q, w1.epsilon, product, graph_exp, field_exp)


def twisted_norm(beta: AutoWord, l: int) -> AutoWord:
    """beta^l = ad_N o mu^l, N by the closed form in the module docstring."""
    if l < 1:
        raise AutoError("l must be >= 1")
    _, log, _, n, _, _ = _torus_logs(beta.q, beta.epsilon)
    _, reverse, powers = _mu_logs(beta.q, beta.epsilon, beta.graph_exp, beta.field_exp)
    laps, rest = divmod(l, len(powers))
    sums = [0, 0]
    for j, p in enumerate(powers):
        sums[j % 2 if reverse else 0] += p * (laps + (j < rest))
    a_sum, b_sum = (c % n for c in sums)
    norm = [a_sum * log[x] + b_sum * log[y] for x, y in zip(beta.t, reversed(beta.t))]
    graph_exp, field_exp = beta.graph_exp * l, beta.field_exp * l
    return _trusted_word(beta.d, beta.q, beta.epsilon, norm, graph_exp, field_exp)


def naive_power(beta: AutoWord, l: int) -> AutoWord:
    """beta^l by t_(k+1) = t_k * mu^k(t): factor k adds s_k R_k(L) to the logs
    in place, (s_k, R_k) taken once per residue of k mod |mu|; canonical once."""
    if l < 1:
        raise AutoError("l must be >= 1")
    q, epsilon, (a, b) = beta.q, beta.epsilon, beta.mu()
    fld, log = _torus_logs(q, epsilon)[:2]
    forward = [log[x] for x in beta.t]
    backward = forward[::-1]
    steps = []  # mu^k for k < min(|mu|, l), one _mu_logs key per fold
    for k in range(min(beta.mu_order(), l)):
        s, reverse, _ = _mu_logs(q, epsilon, *_fold_mu(fld, epsilon, k * a, k * b))
        steps.append((s, backward if reverse else forward))
    logs, period = forward.copy(), len(steps)
    for k in range(1, l):
        s, moved = steps[k % period]
        for i, y in enumerate(moved):
            logs[i] += s * y
    return _trusted_word(beta.d, q, epsilon, logs, l * a, l * b)


def auto_order(beta: AutoWord) -> int:
    """|beta| = r * ord(N_r mod Z), r = |mu|, as in the module docstring."""
    r = beta.mu_order()
    return r * torus_element_order(twisted_norm(beta, r).t, beta.q, beta.epsilon)


# --- exhaustive divisibility verification ---------------------------------


def enumerate_torus(d: int, q: int, epsilon: int) -> list[tuple[int, ...]]:
    """Canonical reps of the sigma-fixed diagonal torus modulo the center."""
    fld = field_for(q, epsilon)
    if epsilon == 1:
        diagonals = itertools.product(range(1, fld.size), repeat=d)
    else:
        diagonals = unitary_torus(fld, q, d)
    return sorted({canonical_torus_rep(t, q, epsilon) for t in diagonals})


def torus_element_order(entries: tuple[int, ...], q: int, epsilon: int) -> int:
    """Order of the diagonal, an element of the torus, modulo the center:
    t^k is central iff its entries are equal, iff k (L_i - L_0) = 0 mod n
    for the logs L_i of the entries."""
    _, log, _, n, _, _ = _torus_logs(q, epsilon)
    lead = log[entries[0]]
    return n // math.gcd(n, *(log[a] - lead for a in entries))


def verify_order_bound(d: int, q: int, epsilon: int) -> dict:
    """Exhaustively check the three order-divisibility claims.

    (a) t = 1: |beta| divides delta*f.  (b) t a 3-element: |beta| divides
    3*delta*f.  (c) epsilon = -1, |mu| even, t^{q+1} = 1: |beta| divides 2f.
    Requires 3 | q - epsilon and a desk-scale torus.
    """
    fld = field_for(q, epsilon)
    f, delta = fld.f, fld.delta
    if (q - epsilon) % 3:
        raise AutoError("the divisibility claims assume 3 | q - epsilon")
    if not 1 <= d <= 4 or fld.degree > 6:
        raise AutoError("exhaustive verification needs 1 <= d <= 4 and degree <= 6")
    report = {
        "d": d,
        "q": q,
        "epsilon": epsilon,
        "checked": {"a": 0, "b": 0, "c": 0},
        "violations": [],
    }
    mus = [(a, b) for a in range(2) for b in range(f)]
    mus = [(0, b) for b in range(2 * f)] if epsilon == -1 else mus
    for t in enumerate_torus(d, q, epsilon):
        t_order = torus_element_order(t, q, epsilon)
        # t^{q+1} = 1 modulo the center: the entrywise norm is constant 1
        # (independent of the chosen central representative)
        qp1_trivial = all(fld.pow(a, q + 1) == 1 for a in t)
        for mu in mus:
            word = make_word(d, q, epsilon, t, *mu)
            order = auto_order(word)
            if t_order == 1:
                report["checked"]["a"] += 1
                if (delta * f) % order:
                    report["violations"].append(("a", t, mu, order))
            if pow(3, t_order, t_order) == 0:  # t_order is a power of 3
                report["checked"]["b"] += 1
                if (3 * delta * f) % order:
                    report["violations"].append(("b", t, mu, order))
            if epsilon == -1 and qp1_trivial:
                mu_order = identity_mu_order(mu, q, epsilon)
                if mu_order % 2 == 0:
                    report["checked"]["c"] += 1
                    if (2 * f) % order:
                        report["violations"].append(("c", t, mu, order))
    report["ok"] = not report["violations"]
    return report


def identity_mu_order(mu: tuple[int, int], q: int, epsilon: int) -> int:
    """Order of mu alone in the symmetry group."""
    f = field_for(q, epsilon).f
    a, b = mu
    if epsilon == -1:  # iota = phi^f in Z_2f
        return 2 * f // math.gcd(b + f * (a % 2), 2 * f)
    return math.lcm(1 + a % 2, f // math.gcd(b, f))


def random_word(d: int, q: int, epsilon: int, rng: random.Random) -> AutoWord:
    fld = field_for(q, epsilon)
    f = fld.f
    if epsilon == 1:
        entries = tuple(rng.randrange(1, fld.size) for _ in range(d))
    else:
        half = [rng.randrange(1, fld.size) for _ in range(d // 2)]
        mid = [rng.choice(sorted(central_scalars(fld, q + 1)))] if d % 2 else []
        entries = unitary_diagonal(fld, q, half, mid)
    return make_word(
        d, q, epsilon, entries, rng.randrange(2), rng.randrange(max(f, 1) * 2)
    )
