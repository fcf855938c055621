"""End-to-end acceptance checks, one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete.  Every comparison is exact integer or rational arithmetic.
"""

import random
import time

from e1forge.autos import compose, random_word, twisted_norm, verify_order_bound
from e1forge.bounds import (
    certify_all,
    group_order,
    order_estimate_check,
    replay_witness,
)
from e1forge.cli import main as cli_main
from e1forge.gf2k import field_for, make_field
from e1forge.oracle import (
    brute_scan,
    enumerate_gl,
    enumerate_gu,
    verify_sweep,
)
from e1forge.polyfield import (
    enumerate_charpolys,
    irreducibles,
    poly_dagger,
    poly_star,
    x_plus,
)
from e1forge.semisimple import (
    SemisimpleClass,
    centralizer_shape,
    classify_gudprep,
    eigenspace_bound_failure,
    involution_with_blocks,
)

GROUPS = [
    ("GL", 2, 2),
    ("GL", 2, 4),
    ("GL", 3, 2),
    ("GL", 3, 4),
    ("GU", 2, 2),
    ("GU", 2, 4),
    ("GU", 3, 2),
]


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    start = time.time()
    failures = []
    for kind, d, q in GROUPS:
        r = verify_sweep(kind, d, q)
        if not r["ok"]:
            failures.append((kind, d, q, r["checks"]))
        # invariants that do not depend on the oracle: Steinberg's count of
        # semisimple classes, q^d - eps q^{d-1}, and the class equation
        # over the enumerated charpolys with formula centralizer orders
        epsilon = -1 if kind == "GU" else 1
        classes = list(
            enumerate_charpolys(d, field_for(q, epsilon), unitary=epsilon == -1)
        )
        steinberg = q**d - epsilon * q ** (d - 1)
        class_sum = sum(
            r["order"] // centralizer_shape(SemisimpleClass(epsilon, d, q, c)).order
            for c in classes
        )
        if not r["charpoly_classes"] == len(classes) == steinberg:
            failures.append((kind, d, q, "class count", r["charpoly_classes"]))
        if r["odd_order_elements"] != class_sum:
            failures.append((kind, d, q, "class equation", class_sum))
    elapsed = time.time() - start
    report(
        1,
        not failures and elapsed < 600,
        f"formula vs brute force on {len(GROUPS)} groups and quotients, "
        f"class counts and class equations in {elapsed:.1f}s",
    )


def test_criterion_2_group_orders():
    pgu = group_order("PGU", 3, 4)
    gl_formula = group_order("GL", 3, 4)
    gl_count = enumerate_gl(3, 4).order
    ok = pgu == 62400 and gl_formula == 181440 and gl_count == 181440
    report(2, ok, f"|PGU_3(4)| = {pgu}, |GL_3(4)| = {gl_formula} (count {gl_count})")


def test_criterion_3_involution_centralizers():
    results = []
    for kind, q, expected in [("GL", 2, 8), ("GL", 4, 576), ("GU", 2, 72)]:
        epsilon = -1 if kind == "GU" else 1
        g = enumerate_gl(3, q) if kind == "GL" else enumerate_gu(3, q)
        rows = involution_with_blocks(3, 1, q, epsilon).rows
        flat = tuple(x for row in rows for x in row)
        brute = brute_scan(g, flat).centralizer
        formula = q**3 * (q - epsilon) ** 2
        results.append((kind, q, brute, formula, expected))
    ok = all(b == f == e for _, _, b, f, e in results)
    report(3, ok, "involution centralizers " + ", ".join(
        f"{k}_3({q}): {b}" for k, q, b, _, _ in results
    ))


def test_criterion_4_inequality_registry():
    start = time.time()
    certs = certify_all()
    bad = [c.id for c in certs if c.status != "verified"]
    unreplayable = [
        c.id for c in certs if c.range_end is None and not replay_witness(c)
    ]
    cli_exit = cli_main(["certify", "--all", "--output", "/dev/null"])
    elapsed = time.time() - start
    ok = not bad and not unreplayable and cli_exit == 0 and elapsed < 60
    report(
        4,
        ok,
        f"{len(certs)} registry entries verified, tails replayed, "
        f"certify --all exit {cli_exit} in {elapsed:.1f}s",
    )


def test_criterion_5_classifier_completeness():
    details = []
    ok = True
    for d, q in [(5, 4), (6, 2)]:
        field = make_field(q.bit_length() - 1, 2)
        total = nonempty = dims = 0
        for fac in enumerate_charpolys(
            d, field, real=True, unitary=True, exclude_identity=True
        ):
            c = SemisimpleClass(-1, d, q, fac)
            total += 1
            if eigenspace_bound_failure(c) is None:
                dims += 1
            try:
                classify_gudprep(c)
                nonempty += 1
            except Exception:
                pass
        ok = ok and total > 0 and nonempty == total and dims == total
        details.append(f"(-1,{d},{q}): {nonempty}/{total} cases, {dims}/{total} dim")
    report(5, ok, "; ".join(details))


def test_criterion_6_duality_laws():
    fields = [make_field(1, 1), make_field(1, 2), make_field(2, 2)]
    violations = 0
    scanned = 0
    for field in fields:
        x_plus_one = x_plus(field, 1)
        for k in range(1, 5):
            irr = set(irreducibles(field, k))
            for p in irr:
                if p.constant_term() == 0:
                    continue
                scanned += 1
                s = poly_star(p)
                if poly_star(s) != p or s not in irr:
                    violations += 1
                if p == s and p != x_plus_one and k % 2:
                    violations += 1
                if field.delta == 2:
                    dg = poly_dagger(p)
                    if poly_dagger(dg) != p or dg not in irr:
                        violations += 1
                    if p == dg and k % 2 == 0:
                        violations += 1
        # multiplicativity on a few products of the small irreducibles
        small = list(irreducibles(field, 1))[:3] + list(irreducibles(field, 2))[:3]
        for a in small:
            for b in small:
                if a.constant_term() and b.constant_term():
                    if poly_star(a * b) != poly_star(a) * poly_star(b):
                        violations += 1
                    if field.delta == 2 and poly_dagger(a * b) != poly_dagger(
                        a
                    ) * poly_dagger(b):
                        violations += 1
    report(6, violations == 0, f"{scanned} irreducibles scanned, {violations} violations")


def test_criterion_7_automorphism_orders():
    violations = 0
    for d, q, epsilon in [(3, 4, 1), (3, 2, -1), (4, 4, 1)]:
        r = verify_order_bound(d, q, epsilon)
        violations += len(r["violations"])
    rng = random.Random(0xE1F0)
    norm_fail = 0
    for _ in range(1000):
        d, q, epsilon = rng.choice([(3, 4, 1), (3, 2, -1), (4, 2, 1), (2, 4, -1)])
        w = random_word(d, q, epsilon, rng)
        power = w  # w^l, one compose per step
        for l in range(1, 25):
            if twisted_norm(w, l) != power:
                norm_fail += 1
                break
            power = compose(power, w)
    ok = violations == 0 and norm_fail == 0
    report(
        7,
        ok,
        f"divisibility violations {violations}, "
        f"twisted-norm mismatches {norm_fail}/1000 words (l <= 24)",
    )


def test_criterion_8_order_estimates():
    bad = [
        (a, m)
        for a in range(2, 65)
        for m in range(2, 21)
        if not order_estimate_check(a, m)
    ]
    report(8, not bad, f"order estimates on a 63x19 grid, {len(bad)} failures")
