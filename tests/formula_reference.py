"""The per-class formulas as they were before they moved to lists and logs,
kept as references: Xi expanded by folding MonicPoly products, the central
twist by field mul and pow, and the PGL realness test that compares one
MonicPoly per twist with a freshly built Xi-star."""

import math

from e1forge.gf2k import log_exp_tables
from e1forge.polyfield import MonicPoly, poly_star
from e1forge.semisimple import SemisimpleError


def expand(fac):
    """Xi as the product of the MonicPoly powers p**m, one factor at a time."""
    out = MonicPoly(fac.base_field, ())
    for p, m in fac.factors:
        out = out * (p**m)
    return out


def scale_charpoly(xi, kappa):
    """Characteristic polynomial of kappa*s: every root scales by kappa."""
    fld = xi.field
    if kappa == 0:
        raise SemisimpleError("kappa must be nonzero")
    d = xi.degree
    return MonicPoly(
        fld,
        tuple(fld.mul(c, fld.pow(kappa, d - i)) for i, c in enumerate(xi.coeffs)),
    )


def pgl_is_real(c):
    """Some kappa with kappa^d = c_0^-2 in the centre twists Xi to Xi-star."""
    xi = expand(c.xi)
    fld = xi.field
    log, exp = log_exp_tables(fld.degree)
    n, m = fld.size - 1, c.q - c.epsilon
    s, g = n // m, math.gcd(c.d, m)
    t = -2 * log[xi.constant_term()] % n
    if t % (s * g):
        return False
    j = t // (s * g) * pow(c.d // g, -1, m // g)
    star = poly_star(xi)
    return any(
        scale_charpoly(xi, exp[s * (j + i * m // g) % n]) == star for i in range(g)
    )
