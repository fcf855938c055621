"""The filter-and-factor charpoly enumerations, kept as the references.

`reference_enumerate` walks every monic candidate with c_0 != 0 (or every
palindrome when real), keeps those equal to their star or dagger dual,
and factors each survivor with poly_factor.  `palindrome_walk` walks
the real stream directly: the q^floor(d/2) palindromes over the alphabet
of the real classes (GF(q) when unitary), one poly_factor each, so it
reaches groups where the filter is too slow.
`enumerate_charpolys` builds the same streams from orbits, each a fixed
image of `irreducibles`, and factors only the real unitary orbits, once
each, and no class; the tests compare them, set and order.
`reference_irreducibles` is the degree sieve on coefficient tuples, one
`_polmul` per product, that `irreducibles` replaced with its sieve on codes.
`sieve_census` is the orbit census that `polyfield._orbits` replaced with
fixed maps of `irreducibles`: it sieves the real and the self-dagger orbits
out of every invariant polynomial of a degree, and factors each real orbit.
"""

import hashlib
import itertools
import json
import os
from functools import lru_cache

from e1forge.gf2k import central_scalars, field_for
from e1forge.polyfield import (
    MonicPoly,
    PolyError,
    _polmul,
    _products,
    irreducibles,
    poly_dagger,
    poly_factor,
    poly_star,
)


@lru_cache(maxsize=None)
def reference_irreducibles(field, degree):
    """Monic irreducibles of the exact degree in canonical order: every
    p*r, p irreducible of degree k <= degree/2 and r monic, multiplied out
    and collected in a set; the tuples no product reaches, in order."""
    if degree < 1:
        return ()
    Q = field.size
    reducible = set()
    for k in range(1, degree // 2 + 1):
        for p in reference_irreducibles(field, k):
            full = list(p.coeffs) + [1]
            for r in itertools.product(range(Q), repeat=degree - k):
                reducible.add(tuple(_polmul(field, full, list(r) + [1])[:-1]))
    return tuple(
        MonicPoly(field, coeffs)
        for coeffs in itertools.product(range(Q), repeat=degree)
        if coeffs not in reducible
    )


def sieve_palindromes(d, alphabet):
    # a real monic charpoly in characteristic 2 is palindromic with c_0 = 1,
    # so only c_{d//2}..c_1 are free: the digits, c_1 fastest
    for digits in itertools.product(alphabet, repeat=d // 2):
        yield (1, *digits[::-1], *digits[1 - d % 2 :])  # c_{d-i} = c_i


def dagger_invariant(field, d):
    """Coefficients (c_0, ..., c_{d-1}) of every monic p = p-dagger of degree d.

    c_0 lies in mu_{q+1}, c_i is free for 0 < i < d/2 and c_{d-i} = c_0 c_i^q;
    for even d the middle m solves m = c_0 m^q, whose roots are 0 and
    w GF(q)* with w^(q-1) = 1/c_0.  That is (q + 1) q^(d-1) polynomials.
    """
    q = field.q
    w_exp = -pow(q - 1, -1, q + 1) % (q + 1)  # w = c_0^w_exp, in mu_{q+1}
    units = central_scalars(field, q - 1)
    middles = {}
    for c0 in central_scalars(field, q + 1):
        w = field.pow(c0, w_exp)
        middles[c0] = [()] if d % 2 else [(0,), *((field.mul(w, u),) for u in units)]
    for free in itertools.product(range(field.size), repeat=(d - 1) // 2):
        conj = [field.pow(c, q) for c in reversed(free)]
        for c0, mids in middles.items():
            mirror = tuple(field.mul(c0, c) for c in conj)
            for mid in mids:
                yield (c0, *free, *mid, *mirror)


def sieve_census(field, d, real, unitary):
    """The orbits of degree <= d and every multiset of them of degree d, as
    `polyfield._orbits` and `polyfield._products` give them, found by a sieve.

    An orbit is (its product with the leading 1, lowest degree first; its
    irreducible factors).  GL: each irreducible with c_0 != 0.  GU: each
    pair {p, p-dagger} with p != p-dagger from irreducibles(field, j), and
    each self-dagger irreducible.  Real: each <star> orbit (<star, dagger>
    when unitary).  One sieve finds the self-dagger orbits (odd degree)
    and the real ones (degree 1 or even: an odd palindrome above degree 1
    has the factor x + 1), as the invariant polynomials that no product of
    smaller orbits reaches.  It factors each real orbit once, and walks
    fewer than a/(a-1) times the a^floor(d/2) palindromes charged, a the
    alphabet size; memory is O(classes).  Returns the orbits and {key:
    ((orbit index, multiplicity), ...)}, key = (c_{d-1}, ..., c_0).
    """
    alphabet = range(field.size)
    if real and unitary:  # GF(q) inside GF(q^2) is 0 and mu_{q-1}
        alphabet = sorted((0, *central_scalars(field, field.q - 1)))
    orbits: list = []  # by degree, as _products needs
    for k in range(1, d + 1):
        sieve = (k == 1 or k % 2 == 0) if real else (unitary and k % 2 == 1)
        reached = _products(field, orbits, k) if k == d or sieve else {}
        if sieve:
            walk = sieve_palindromes(k, alphabet) if real else dagger_invariant(field, k)
            for coeffs in walk:
                if coeffs[::-1] not in reached:
                    p = MonicPoly(field, coeffs)
                    irr = tuple(f for f, _ in poly_factor(p).factors) if real else (p,)
                    orbits.append(([*coeffs, 1], irr))
        elif not (real or unitary):
            irr = irreducibles(field, k)
            orbits += [([*p.coeffs, 1], (p,)) for p in irr if p.coeffs[0]]
        elif not real:
            for p in irreducibles(field, k // 2):
                dag = poly_dagger(p) if p.coeffs[0] else p
                if p.coeffs < dag.coeffs:  # once per pair; never p = p-dagger
                    full = _polmul(field, [*p.coeffs, 1], [*dag.coeffs, 1])
                    orbits.append((full, (p, dag)))
    for i, (full, _) in enumerate(orbits):
        if len(full) == d + 1:
            reached[tuple(full[-2::-1])] = ((i, 1),)
    return orbits, reached


def is_unitary_compatible(p):
    """True iff p equals its dagger dual (necessary for GU membership)."""
    return poly_dagger(p) == p


def palindromes(d, field, alphabet):
    """The palindromes of degree d with c_1..c_{floor(d/2)} in alphabet,
    lexicographic on (c_{floor(d/2)}, ..., c_1) over the sorted alphabet."""
    # a real monic charpoly in characteristic 2 is palindromic with
    # constant term 1, so only c_1..c_{floor(d/2)} are free
    alphabet = sorted(alphabet)
    half = d // 2
    for enc in range(len(alphabet) ** half):
        cs, e = [], enc
        for _ in range(half):
            cs.append(alphabet[e % len(alphabet)])
            e //= len(alphabet)
        # mirror: c_i = c_{d-i}, and 1 <= min(i, d - i) <= half
        yield MonicPoly(field, (1, *(cs[min(i, d - i) - 1] for i in range(1, d))))


def palindrome_walk(d, field, unitary=False, exclude_identity=False):
    """Factorizations of the real (and, if asked, unitary) charpolys: one
    poly_factor per palindrome, coefficients in GF(q) when unitary."""
    if d < 1:
        raise PolyError("degree must be >= 1")
    alphabet = range(field.size)
    if unitary:  # Xi = Xi-star = Xi-dagger iff Xi is real with c^q = c
        alphabet = [c for c in alphabet if field.pow(c, field.q) == c]
    identity = MonicPoly(field, (1,)) ** d if exclude_identity else None
    for p in palindromes(d, field, alphabet):
        if p != identity:
            yield poly_factor(p)


def raw_enumerate(d, field, real):
    Q = field.size
    if real:
        yield from palindromes(d, field, range(Q))
    else:
        for enc in range(Q ** (d - 1)):
            e = enc
            rest = []
            for _ in range(d - 1):
                rest.append(e % Q)
                e //= Q
            for c0 in range(1, Q):
                yield MonicPoly(field, tuple([c0] + rest))


def reference_enumerate(d, field, real=False, unitary=False, exclude_identity=False):
    """Factorizations of the candidates that pass the real/unitary filters."""
    if d < 1:
        raise PolyError("degree must be >= 1")
    identity = MonicPoly(field, (1,)) ** d if exclude_identity else None
    for p in raw_enumerate(d, field, real):
        if real and poly_star(p) != p:
            continue
        if unitary and not is_unitary_compatible(p):
            continue
        if exclude_identity and p == identity:
            continue
        yield poly_factor(p)


def stream_digest(stream) -> str:
    """sha256 over the factors and multiplicities of every yield, in order."""
    h = hashlib.sha256()
    for fac in stream:
        h.update(repr([(p.coeffs, m) for p, m in fac.factors]).encode() + b"\n")
    return h.hexdigest()


def census_cases(limit):
    """(epsilon, d, q) with Q^d <= limit, Q = q for GL and q^2 for GU."""
    out = []
    for epsilon, top in ((1, 20), (-1, 10)):
        for f in range(1, top + 1):
            Q = 2 ** (f * (2 if epsilon == -1 else 1))
            out += [(epsilon, d, 2**f) for d in range(1, 64) if Q**d <= limit]
    return out


DIGESTS = os.path.join(os.path.dirname(__file__), "data", "census_digests.json")
LIVE_LIMIT = 10**4  # above this the reference is too slow for every test run
DIGEST_LIMIT = 10**5

if __name__ == "__main__":
    # python tests/census_reference.py  (from the repo root, src/ on the path)
    # rewrites DIGESTS from the reference: about two minutes on one core
    digests = {}
    for epsilon, d, q in census_cases(DIGEST_LIMIT):
        field = field_for(q, epsilon)
        if field.size**d <= LIVE_LIMIT:
            continue
        for unitary in (False, True) if epsilon == -1 else (False,):
            stream = reference_enumerate(d, field, unitary=unitary)
            digests[f"{epsilon},{d},{q},{int(unitary)}"] = stream_digest(stream)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
