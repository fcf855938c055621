"""The slow references of the field layer: bit-serial shift-and-xor
arithmetic in GF(2)[x] modulo any modulus, reducible or not, and the
re-derivation of the stored Conway polynomials from their definition.

Every function takes the modulus (or the degree) as an argument, so the
tests compare gf2k's tables against these without touching FieldSpec."""

from functools import lru_cache


def mul_bits(mod: int, a: int, b: int) -> int:
    """a*b modulo mod, one shift-and-xor step per bit of b."""
    n = mod.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= mod
    return r


def pow_bits(mod: int, a: int, e: int) -> int:
    """a^e modulo mod for e >= 0 by square-and-multiply over mul_bits."""
    r = 1
    while e:
        if e & 1:
            r = mul_bits(mod, r, a)
        e >>= 1
        a = mul_bits(mod, a, a)
    return r


@lru_cache(maxsize=None)
def factor_small(n: int) -> tuple[int, ...]:
    """Prime factors of n (n <= 2^20 - 1 here, so trial division suffices)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@lru_cache(maxsize=None)
def compute_conway_poly(n: int) -> int:
    """Re-derive the degree-n Conway polynomial from its definition: the
    lexicographically least monic primitive polynomial whose roots are
    norm-compatible with the Conway polynomials of all proper subfield
    degrees (re-derived here too, never read from the stored table)."""
    if n == 1:
        return 0b11
    size = 1 << n
    top = size - 1
    factors = factor_small(top)
    divisors = [m for m in range(1, n) if n % m == 0]

    def primitive(mod: int) -> bool:
        if pow_bits(mod, 2, top) != 1:
            return False
        return all(pow_bits(mod, 2, top // p) != 1 for p in factors)

    def compatible(mod: int) -> bool:
        for m in divisors:
            alpha = pow_bits(mod, 2, top // ((1 << m) - 1))
            lower = compute_conway_poly(m)
            # evaluate the lower Conway polynomial at alpha
            r = 0
            for i in range(lower.bit_length() - 1, -1, -1):
                r = mul_bits(mod, r, alpha)
                if (lower >> i) & 1:
                    r ^= 1
            if r != 0:
                return False
        return True

    # scan in lexicographic order on the coefficient word a_{n-1},...,a_1
    for w in range(1 << (n - 1)):
        mid = 0
        for i in range(n - 1):
            if (w >> (n - 2 - i)) & 1:
                mid |= 1 << (n - 1 - i)
        mod = size | mid | 1
        if primitive(mod) and compatible(mod):
            return mod
    raise ValueError(f"no Conway polynomial found for degree {n}")
