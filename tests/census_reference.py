"""The filter-and-factor charpoly enumerations, kept as the references.

`reference_enumerate` walks every monic candidate with c_0 != 0 (or every
palindrome when real), keeps those equal to their star or dagger dual,
and factors each survivor with poly_factor.  `palindrome_walk` walks
the real stream directly: the q^floor(d/2) palindromes over the alphabet
of the real classes (GF(q) when unitary), one poly_factor each, so it
reaches groups where the filter is too slow.
`enumerate_charpolys` builds the same streams from orbits, factoring
each real orbit once and no class; the tests compare them, set and order.
`reference_irreducibles` is the degree sieve on coefficient tuples, one
`_polmul` per product, that `irreducibles` replaced with its sieve on codes.
"""

import hashlib
import itertools
import json
import os
from functools import lru_cache

from e1forge.gf2k import field_for
from e1forge.polyfield import (
    MonicPoly,
    PolyError,
    _polmul,
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
