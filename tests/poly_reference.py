"""The per-coefficient FieldSpec kernels of polynomial division and of the
two dualities, kept as the references.

`_poldivmod` and `poly_star`/`poly_dagger` run on discrete-log tables up to
TABLE_MAX_DEGREE; these make one `fld.mul`/`fld.inv`/`fld.pow` call per
coefficient, as the library did before, and the tests compare the two.
"""

from e1forge.polyfield import MonicPoly, PolyError, _trim


def poldivmod(fld, a, b):
    """Quotient and remainder of a by b (b trimmed, any nonzero lead)."""
    a = _trim(list(a))
    db, lb = len(b) - 1, b[-1]
    inv_lb = 1 if lb == 1 else fld.inv(lb)
    low = b[:-1]  # the top term of a cancels by construction
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        coef = a.pop() if inv_lb == 1 else fld.mul(a.pop(), inv_lb)
        shift = len(a) - db
        q[shift] = coef
        for i, bi in enumerate(low):
            if bi:
                a[shift + i] ^= fld.mul(coef, bi)
        _trim(a)
    return _trim(q), a


def star(p):
    """Coefficients reversed and divided by the constant term."""
    if p.degree == 0:
        return p
    c0 = p.constant_term()
    if c0 == 0:
        raise PolyError("star undefined: zero constant term")
    fld = p.field
    inv0 = fld.inv(c0)
    full = list(p.coeffs) + [1]
    rev = [fld.mul(c, inv0) for c in reversed(full)]
    return MonicPoly(fld, tuple(rev[:-1]))


def dagger(p):
    """The star of the coefficient-wise q-th-power twist."""
    fld = p.field
    if fld.delta != 2:
        raise PolyError("dagger requires a delta=2 field")
    if p.degree and p.constant_term() == 0:
        raise PolyError("dagger undefined: zero constant term")
    return star(MonicPoly(fld, tuple(fld.pow(c, fld.q) for c in p.coeffs)))
