"""Automorphism bookkeeping on the diagonal-torus model.

An automorphism word is ad_t composed with mu = iota^a phi^b, where t is a
diagonal torus element taken modulo the center, phi squares every entry,
and iota reverses the diagonal and inverts every entry.  For the unitary
case (epsilon = -1) the sigma-fixed torus consists of the diagonals with
a_i * a_{d+1-i}^q = 1 over GF(q^2); there iota acts as phi^f, so words
reduce to powers of phi modulo 2f.  Torus elements are stored as the
lexicographically least representative of their central-scalar orbit.

The composition law is (ad_t o mu)(ad_t' o mu') = ad_{t * mu(t')} o mu mu',
and powers close up via the twisted norm N = prod_{i<l} mu^i(t).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .gf2k import FieldSpec, central_scalars, field_for


class AutoError(ValueError):
    """Raised for malformed words or unsupported parameters."""


def canonical_torus_rep(
    entries: tuple[int, ...], q: int, epsilon: int
) -> tuple[int, ...]:
    """Lexicographically least central-scalar multiple of the entries (a
    diagonal here, a flat matrix in the oracle's projective quotients).
    The order is decided at the first nonzero entry v, where the products
    c*v are distinct for distinct central c; an all-zero tuple is fixed.
    GL's centre is all of GF(q)*, so there c*v = 1 and c = 1/v; GU scans
    mu_{q+1}."""
    fld = field_for(q, epsilon)
    lead = next((a for a in entries if a), 0)
    if not lead:
        return (0,) * len(entries)
    if epsilon == 1:
        c = fld.inv(lead)
    else:
        c = min(central_scalars(fld, q + 1), key=lambda c: fld.mul(c, lead))
    return tuple(fld.mul(c, a) for a in entries)


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


def apply_mu_diagonal(
    mu: tuple[int, int], entries: tuple[int, ...], field: FieldSpec
) -> tuple[int, ...]:
    """Apply iota^a then phi^b to a diagonal (entrywise, positionally)."""
    a, b = mu
    out = list(entries)
    if a % 2:
        out = [field.inv(x) for x in reversed(out)]
    if b % field.degree:
        e = 1 << (b % field.degree)
        out = [field.pow(x, e) for x in out]
    return tuple(out)


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
    d: int,
    q: int,
    epsilon: int,
    entries,
    graph_exp: int = 0,
    field_exp: int = 0,
) -> AutoWord:
    if epsilon not in (1, -1):
        raise AutoError("epsilon must be +1 or -1")
    fld = field_for(q, epsilon)
    entries = tuple(int(a) for a in entries)
    if len(entries) != d:
        raise AutoError(f"expected {d} diagonal entries, got {len(entries)}")
    if any(not 0 < a < fld.size for a in entries):
        raise AutoError("diagonal entries must be nonzero field elements")
    if epsilon == -1:
        for i in range(d):
            if fld.mul(entries[i], fld.pow(entries[d - 1 - i], q)) != 1:
                raise AutoError(
                    "diagonal is not in the unitary torus: "
                    "need a_i * a_{d+1-i}^q = 1"
                )
    return _trusted_word(d, q, epsilon, fld, entries, graph_exp, field_exp)


def _trusted_word(d, q, epsilon, fld, entries, graph_exp, field_exp) -> AutoWord:
    """make_word without its checks, for entries that are a product of valid
    torus elements and so lie in the torus: same exponent fold and canonical
    form."""
    if epsilon == -1:
        # iota acts as phi^f on this torus: fold the graph part
        field_exp = (field_exp + fld.f * (graph_exp % 2)) % (2 * fld.f)
        graph_exp = 0
    else:
        graph_exp %= 2
        field_exp %= fld.f
    return AutoWord(
        epsilon, d, q, canonical_torus_rep(entries, q, epsilon), graph_exp, field_exp
    )


def identity_word(d: int, q: int, epsilon: int) -> AutoWord:
    return make_word(d, q, epsilon, (1,) * d)


def compose(w1: AutoWord, w2: AutoWord) -> AutoWord:
    """(ad_t o mu)(ad_t' o mu') = ad_{t * mu(t')} o mu mu'."""
    if (w1.epsilon, w1.d, w1.q) != (w2.epsilon, w2.d, w2.q):
        raise AutoError("cannot compose words over different groups")
    fld = w1.field
    moved = apply_mu_diagonal(w1.mu(), w2.t, fld)
    product = tuple(fld.mul(a, b) for a, b in zip(w1.t, moved))
    graph_exp, field_exp = w1.graph_exp + w2.graph_exp, w1.field_exp + w2.field_exp
    return _trusted_word(w1.d, w1.q, w1.epsilon, fld, product, graph_exp, field_exp)


def _is_central(entries: tuple[int, ...]) -> bool:
    """A torus element is central iff its entries are equal: GL's centre is
    all of GF(q)*, and c * c^q = 1 puts c in mu_{q+1} for GU."""
    return all(a == entries[0] for a in entries)


def is_identity(word: AutoWord) -> bool:
    return word.graph_exp == 0 and word.field_exp == 0 and _is_central(word.t)


def twisted_norm(beta: AutoWord, l: int) -> AutoWord:
    """beta^l in normal form: ad_N o mu^l with N = prod_{i<l} mu^i(t)."""
    if l < 1:
        raise AutoError("l must be >= 1")
    fld = beta.field
    mu = beta.mu()
    norm = beta.t
    moved = beta.t
    for _ in range(l - 1):
        moved = apply_mu_diagonal(mu, moved, fld)
        norm = tuple(fld.mul(a, b) for a, b in zip(norm, moved))
    graph_exp, field_exp = beta.graph_exp * l, beta.field_exp * l
    return _trusted_word(beta.d, beta.q, beta.epsilon, fld, norm, graph_exp, field_exp)


def naive_power(beta: AutoWord, l: int) -> AutoWord:
    out = beta
    for _ in range(l - 1):
        out = compose(out, beta)
    return out


def auto_order(beta: AutoWord, limit: int = 100000) -> int:
    acc = beta
    for l in range(1, limit + 1):
        if is_identity(acc):
            return l
        acc = compose(acc, beta)
    raise AutoError(f"order exceeds iteration limit {limit}")


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
    """Order of the diagonal, an element of the torus, modulo the center."""
    fld = field_for(q, epsilon)
    acc = entries
    for n in range(1, fld.size * 2):
        if _is_central(acc):
            return n
        acc = tuple(fld.mul(a, b) for a, b in zip(acc, entries))
    raise AutoError("torus order search failed")


def _all_mu(q: int, epsilon: int):
    f = field_for(q, epsilon).f
    if epsilon == -1:
        return [(0, b) for b in range(2 * f)]
    return [(a, b) for a in range(2) for b in range(f)]


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
    if d > 4 or fld.degree > 6:
        raise AutoError("torus too large for exhaustive verification")
    report = {
        "d": d,
        "q": q,
        "epsilon": epsilon,
        "checked": {"a": 0, "b": 0, "c": 0},
        "violations": [],
    }
    torus = enumerate_torus(d, q, epsilon)
    for t in torus:
        t_order = torus_element_order(t, q, epsilon)
        # t^{q+1} = 1 modulo the center: the entrywise norm is constant 1
        # (independent of the chosen central representative)
        qp1_trivial = all(fld.pow(a, q + 1) == 1 for a in t)
        for mu in _all_mu(q, epsilon):
            word = make_word(d, q, epsilon, t, *mu)
            order = auto_order(word)
            if t_order == 1:
                report["checked"]["a"] += 1
                if (delta * f) % order:
                    report["violations"].append(("a", t, mu, order))
            if _is_power_of_3(t_order):
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
    if epsilon == -1:
        e = (b + f * (a % 2)) % (2 * f)
        return (2 * f) // math.gcd(e, 2 * f) if e else 1
    oa = 2 if a % 2 else 1
    bb = b % f
    ob = f // math.gcd(bb, f) if bb else 1
    return oa * ob // math.gcd(oa, ob)


def _is_power_of_3(n: int) -> bool:
    while n % 3 == 0:
        n //= 3
    return n == 1


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
