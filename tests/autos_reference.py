"""Per-entry torus arithmetic, kept as the reference for `e1forge.autos`.

Every product here is a `FieldSpec.mul`, every inverse and Frobenius power a
`FieldSpec.inv`/`pow`, and the canonical form of a GU diagonal scans the
whole centre mu_{q+1}.  `autos` does the same arithmetic on discrete logs;
the tests compare the two word for word.  Orders are found by composing
until the identity, where `autos.auto_order` uses the closed form.
"""

from e1forge.autos import AutoWord, make_word
from e1forge.gf2k import central_scalars, field_for


def canonical_by_centre_scan(entries, q, epsilon):
    """The least scaled tuple over the whole centre."""
    fld = field_for(q, epsilon)
    return min(
        tuple(fld.mul(c, a) for a in entries)
        for c in central_scalars(fld, q - epsilon)
    )


def canonical_torus_rep(entries, q, epsilon):
    """The least central multiple, decided at the first nonzero entry v:
    GL scales by 1/v, GU scans mu_{q+1} for the least c*v."""
    fld = field_for(q, epsilon)
    lead = next((a for a in entries if a), 0)
    if not lead:
        return (0,) * len(entries)
    if epsilon == 1:
        c = fld.inv(lead)
    else:
        c = min(central_scalars(fld, q + 1), key=lambda c: fld.mul(c, lead))
    return tuple(fld.mul(c, a) for a in entries)


def apply_mu_diagonal(mu, entries, field):
    """Apply iota^a then phi^b to a diagonal (entrywise, positionally)."""
    a, b = mu
    out = list(entries)
    if a % 2:
        out = [field.inv(x) for x in reversed(out)]
    if b % field.degree:
        e = 1 << (b % field.degree)
        out = [field.pow(x, e) for x in out]
    return tuple(out)


def word(d, q, epsilon, entries, graph_exp, field_exp):
    """The word with these entries, exponents folded as `make_word` does."""
    fld = field_for(q, epsilon)
    if epsilon == -1:
        field_exp = (field_exp + fld.f * (graph_exp % 2)) % (2 * fld.f)
        graph_exp = 0
    else:
        graph_exp %= 2
        field_exp %= fld.f
    t = canonical_torus_rep(entries, q, epsilon)
    return AutoWord(epsilon, d, q, t, graph_exp, field_exp)


def compose(w1, w2):
    """(ad_t o mu)(ad_t' o mu') = ad_{t * mu(t')} o mu mu'."""
    fld = w1.field
    moved = apply_mu_diagonal(w1.mu(), w2.t, fld)
    product = tuple(fld.mul(a, b) for a, b in zip(w1.t, moved))
    return word(
        w1.d,
        w1.q,
        w1.epsilon,
        product,
        w1.graph_exp + w2.graph_exp,
        w1.field_exp + w2.field_exp,
    )


def twisted_norm(beta, l):
    """beta^l as ad_N o mu^l with N = prod_{i<l} mu^i(t)."""
    fld = beta.field
    mu = beta.mu()
    norm = moved = beta.t
    for _ in range(l - 1):
        moved = apply_mu_diagonal(mu, moved, fld)
        norm = tuple(fld.mul(a, b) for a, b in zip(norm, moved))
    return word(
        beta.d, beta.q, beta.epsilon, norm, beta.graph_exp * l, beta.field_exp * l
    )


def naive_power(beta, l):
    out = beta
    for _ in range(l - 1):
        out = compose(out, beta)
    return out


def identity_word(d, q, epsilon):
    return make_word(d, q, epsilon, (1,) * d)


def is_identity(word):
    """mu = 1 and t central, that is, with equal entries: GL's centre is all
    of GF(q)*, and c * c^q = 1 puts c in mu_{q+1} for GU."""
    return word.graph_exp == word.field_exp == 0 and len(set(word.t)) == 1


def auto_order(beta):
    """The least l with beta^l the identity, composing one factor at a time."""
    acc, l = beta, 1
    while not is_identity(acc):
        acc, l = compose(acc, beta), l + 1
    return l


def torus_element_order(entries, q, epsilon):
    """The least n with t^n central, by repeated multiplication."""
    fld = field_for(q, epsilon)
    acc, n = entries, 1
    while any(a != acc[0] for a in acc):
        acc = tuple(fld.mul(a, b) for a, b in zip(acc, entries))
        n += 1
    return n
