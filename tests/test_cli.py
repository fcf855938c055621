"""Command-line behavior: exit codes, report determinism, parsing."""

import decimal
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e1forge import semisimple
from e1forge.cli import UsageError, main, parse_xi
from e1forge.gf2k import make_field
from e1forge.oracle import OracleConfigError, OracleError
from e1forge.polyfield import format_poly

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_spec_example(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--epsilon", "-1", "--d", "6", "--q", "2",
        "--xi", "(x+1)^2(x+w)^2(x+w2)^2",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert "a" in report["cases"] and "h" in report["cases"]
    assert report["order"] == "5832"


def test_classify_bad_degree_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "classify", "--epsilon", "1", "--d", "4", "--q", "4", "--xi", "(x+1)^3",
    )
    assert code == 2
    assert "degree" in err


def test_classify_non_power_of_two_q(capsys):
    code, _, err = run(
        capsys,
        "classify", "--epsilon", "1", "--d", "3", "--q", "6", "--xi", "(x+1)^3",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--epsilon", "1", "--d", "3", "--q", "2097152", "--xi", "(x+1)^3"],
        ["classify", "--epsilon", "-1", "--d", "3", "--q", "2048", "--xi", "(x+1)^3"],
        ["classify", "--epsilon", "1", "--d", "0", "--q", "4", "--xi", "(x+1)"],
        ["oracle", "verify", "--group", "GL", "--d", "0", "--q", "2"],
        ["auto-order", "--d", "0", "--q", "4", "--epsilon", "1"],
        ["sweep", "--epsilon", "-1", "--d", "0", "--q", "4"],
        # configuration errors in the oracle: a budget overrun, and a d the
        # closed-form charpolys do not cover (rejected before enumerating)
        ["oracle", "verify", "--group", "GL", "--d", "3", "--q", "4", "--budget", "100"],
        ["oracle", "verify", "--group", "GL", "--d", "4", "--q", "2"],
        # malformed --t, and an --xi power far above d (rejected unbuilt)
        ["auto-order", "--d", "3", "--q", "4", "--epsilon", "1", "--t", "1,x,1"],
        ["classify", "--epsilon", "1", "--d", "3", "--q", "4", "--xi", "(x+1)^100000"],
        # an --xi below d, refused by SemisimpleClass
        ["classify", "--epsilon", "1", "--d", "4", "--q", "4", "--xi", "(x+1)^3"],
        # --xi integers beyond Python's integer-string limit (4,300 digits)
        ["classify", "--epsilon", "1", "--d", "3", "--q", "4",
         "--xi", "(x+1)^" + "9" * 5000],
        ["classify", "--epsilon", "1", "--d", "3", "--q", "4",
         "--xi", "(x+" + "1" * 5000 + ")"],
        ["classify", "--epsilon", "1", "--d", "1", "--q", "4",
         "--xi", "[" + "1" * 5000 + ",1]"],
        ["classify", "--epsilon", "1", "--d", "3", "--q", "4",
         "--xi", "poly(GF(2^" + "2" * 5000 + "))[1,1,1,1]"],
        # certify: a malformed range, over-long literals, and the limits on
        # f-range ends and on exponents
        ["certify", "--expr", "q > f", "--range", "a..3"],
        ["certify", "--expr", "q > " + "9" * 5000, "--range", "1..3"],
        ["certify", "--expr", "q > f", "--range", "1" * 5000 + "+"],
        ["certify", "--expr", "q > f", "--range", "1..100000000"],
        ["certify", "--expr", "q^10000000 > f", "--range", "1..3"],
        # an empty f-range checks nothing, so it cannot verify anything
        ["certify", "--expr", "q < q", "--range", "5..3"],
        # an empty --expr, --id or --range names nothing, and --range
        # bounds only an --expr
        ["certify", "--expr", ""],
        ["certify", "--expr", "q > f", "--range", ""],
        ["certify", "--id", ""],
        ["certify", "--id", "trivial-positive", "--range", "5..9"],
        ["certify", "--range", "5..9"],
        # --all, --id and --expr each choose what to certify
        ["certify", "--all", "--id", "trivial-positive"],
        ["certify", "--all", "--expr", "q > f"],
        ["certify", "--id", "trivial-positive", "--expr", "q > f"],
        # --registry names entries to certify, which --expr replaces
        ["certify", "--expr", "q > 0", "--range", "1..3", "--registry", "/nonexistent/reg.txt"],
        # an empty --t names no torus element (absent, it is the identity)
        ["auto-order", "--d", "3", "--q", "4", "--epsilon", "1", "--t", ""],
    ],
)
def test_configuration_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert (
        err.startswith("error:")
        or "argument --d" in err
        or "not allowed with argument" in err
    )


def test_classify_refuses_a_poly_above_d_unfactored(capsys, monkeypatch):
    # factoring a degree-600 poly over GF(4) would take about 20 s
    def no_factor(poly):
        raise AssertionError("factored an --xi above d")

    monkeypatch.setattr(semisimple, "poly_factor", no_factor)
    xi = "poly(GF(2^2))[" + "1," * 600 + "1]"
    code, out, err = run(
        capsys, "classify", "--epsilon", "1", "--d", "3", "--q", "4", "--xi", xi
    )
    assert (code, out, err) == (2, "", "error: --xi has degree 600, expected d = 3\n")


@pytest.mark.parametrize(
    "expr",
    ["((q+f)^1000)^1000 > f", "(q+f+1)^1000 > f", "((2^1000)^1000)^1000 > f"],
)
def test_certify_oversized_polynomial_exits_two_quickly(expr):
    # nested or many-term powers are refused before they are multiplied out;
    # the subprocess timeout is the time limit
    proc = subprocess.run(
        [sys.executable, "-m", "e1forge.cli", "certify", "--expr", expr, "--range", "1..3"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")


def test_certify_registry_with_bad_range_exits_two(tmp_path, capsys):
    registry = tmp_path / "registry.txt"
    registry.write_text("bad | q | > | f | a..3 | anchor\n")
    code, out, err = run(capsys, "certify", "--registry", str(registry))
    assert code == 2
    assert out == "" and "bad f-range" in err


def test_certify_registry_not_utf8_exits_two(tmp_path, capsys):
    registry = tmp_path / "registry.bin"
    registry.write_bytes(b"id | q | > | 0 | 1+ | \xff\xfe anchor\n")
    code, out, err = run(capsys, "certify", "--registry", str(registry))
    assert code == 2 and out == ""
    assert err.startswith("error: registry is not UTF-8 text")


def test_unwritable_output_exits_two(tmp_path, capsys):
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run(
            capsys, "certify", "--id", "trivial-positive", "--output", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --output:")
        assert err.endswith("\n") and err.count("\n") == 1  # no traceback


def test_unwritable_output_exits_two_before_the_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify_sweep ran before --output was checked")

    monkeypatch.setattr("e1forge.oracle.verify_sweep", no_work)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys,
        "oracle", "verify", "--group", "GL", "--d", "3", "--q", "4",
        "--output", str(target),
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write --output: {target}\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_certify_all_report_is_byte_identical(fmt, capsys):
    # stdout of `certify --all` as the two-copy dominance certifier gave it
    assert main(["certify", "--all", "--format", fmt]) == 0
    golden = DATA / f"certify_all.{fmt}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_certify_all_exits_zero(capsys):
    code, out, _ = run(capsys, "certify", "--all")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_certify_failing_expression_exits_one(capsys):
    code, out, _ = run(capsys, "certify", "--expr", "q < q", "--range", "1..4")
    assert code == 1


def test_certify_single_id(capsys):
    code, out, _ = run(capsys, "certify", "--id", "psu3-deg-gap")
    assert code == 0
    entries = json.loads(out)["report"]["entries"]
    assert len(entries) == 1 and entries[0]["status"] == "verified"


def test_certify_unknown_id(capsys):
    code, _, err = run(capsys, "certify", "--id", "no-such-entry")
    assert code == 2


def test_oracle_verify_deterministic_output(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(
            capsys,
            "oracle", "verify", "--group", "GL", "--d", "2", "--q", "2",
            "--output", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_oracle_verify_reports_checks(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "oracle", "verify", "--group", "GU", "--d", "2", "--q", "2",
        "--output", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())["report"]
    assert report["ok"] is True
    assert report["order"] == "18"
    assert {c["name"] for c in report["checks"]} >= {
        "order_formula",
        "centralizer_formula",
        "realness_formula",
    }


@pytest.mark.parametrize("error, code", [(OracleError, 1), (OracleConfigError, 2)])
def test_oracle_errors_exit_one_or_two(capsys, monkeypatch, error, code):
    # an internal-consistency failure is a failed check, a refused
    # configuration a usage error; each prints one line and no report
    def fail(*args, **kwargs):
        raise error("the two GU constructions disagree")

    monkeypatch.setattr("e1forge.oracle.verify_sweep", fail)
    assert run(
        capsys, "oracle", "verify", "--group", "GU", "--d", "2", "--q", "2"
    ) == (code, "", "error: the two GU constructions disagree\n")


IMPORT_BOUNDARY = """
import contextlib, io, sys
from e1forge.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

def loaded():
    return [m for m in ("numpy", "e1forge.oracle") if m in sys.modules]

print(loaded())
print([
    run("classify", "--epsilon", "-1", "--d", "6", "--q", "2",
        "--xi", "(x+1)^2(x+w)^2(x+w2)^2"),
    run("sweep", "--epsilon", "-1", "--d", "5", "--q", "4"),
    run("certify", "--all"),
    run("auto-order", "--d", "3", "--q", "4", "--epsilon", "1",
        "--t", "1,2,3", "--field-exp", "1"),
], loaded())
# the 32-bit log/exp tables above TABLE_MAX_DEGREE are built without numpy
print([
    run("classify", "--epsilon", "1", "--d", "6", "--q", "1048576",
        "--xi", "[13611,837885,676184,647677,315356,292971,1]"),
    run("auto-order", "--d", "2", "--q", "1024", "--epsilon", "-1",
        "--t", "2,748750"),
    run("auto-order", "--d", "2", "--q", "1048576", "--epsilon", "1",
        "--t", "1,3"),
    run("auto-order", "--d", "3", "--q", "131072", "--epsilon", "1",
        "--t", "1,2,3"),
], loaded())

# the polynomial layer over GF(2^17..20) runs on FieldSpec's own calls
from e1forge.gf2k import make_field
from e1forge.polyfield import (
    MonicPoly, irreducibles, poly_dagger, poly_factor, poly_star,
)
for f, delta in [(17, 1), (9, 2), (19, 1), (10, 2)]:
    p = MonicPoly(make_field(f, delta), (3, 5, 7, 11))
    poly_factor(p), poly_star(p), delta == 2 and poly_dagger(p)
print(len(irreducibles(make_field(17), 1)), loaded())
print(run("oracle", "verify", "--group", "GL", "--d", "2", "--q", "2"), loaded())
"""


def test_only_oracle_verify_loads_numpy():
    # every other subcommand runs without importing the oracle, and so numpy;
    # so do factoring, the dualities and the sieve above TABLE_MAX_DEGREE
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out.splitlines() == [
        "[]",
        "[0, 0, 0, 0] []",
        "[0, 0, 0, 0] []",
        "131072 []",
        "0 ['numpy', 'e1forge.oracle']",
    ]


def test_sweep_acceptance_cases(capsys):
    for d, q in [(5, 4), (6, 2)]:
        code, out, _ = run(
            capsys, "sweep", "--epsilon", "-1", "--d", str(d), "--q", str(q)
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["classes"] == report["nonempty_case_sets"]
        assert report["classes"] == report["dimension_bound_holds"]


def test_gl_sweep_skips_the_unitary_dimension_bound(capsys):
    # real GL_6(4) classes such as (x+1)^2 (x^4+2x^3+x^2+2x+1) break
    # d >= d1 + 2mk, a statement about real unitary classes
    code, out, _ = run(capsys, "sweep", "--epsilon", "1", "--d", "6", "--q", "4")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["classes"] == report["nonempty_case_sets"] == "63"
    assert report["dimension_bound_holds"] is None
    assert report["failures"] == [] and report["ok"] is True


def test_sweep_lists_every_dimension_bound_failure(capsys, monkeypatch):
    # the bound, patched to fail on every class without an x+1 factor: each
    # of those classes is listed with Xi, d1 and the failing factor
    flagged = []

    def fail_without_x_plus_1(c):
        if c.d1:
            return None
        factor = c.xi.factors[0][0]
        flagged.append(
            {
                "xi": format_poly(c.charpoly),
                "d1": "0",
                "factor": format_poly(factor),
                "error": "eigenspace dimension bound d >= d1 + 2mk fails",
            }
        )
        return factor

    monkeypatch.setattr(semisimple, "eigenspace_bound_failure", fail_without_x_plus_1)
    code, out, _ = run(capsys, "sweep", "--epsilon", "-1", "--d", "6", "--q", "2")
    assert code == 1
    report = json.loads(out)["report"]
    assert flagged and report["failures"] == flagged and report["ok"] is False
    assert int(report["dimension_bound_holds"]) == int(report["classes"]) - len(flagged)
    assert report["nonempty_case_sets"] == report["classes"]
    # GL never evaluates the bound
    flagged.clear()
    code, out, _ = run(capsys, "sweep", "--epsilon", "1", "--d", "6", "--q", "4")
    assert code == 0 and json.loads(out)["report"]["failures"] == [] == flagged


def test_auto_order(capsys):
    code, out, _ = run(
        capsys,
        "auto-order", "--d", "3", "--q", "4", "--epsilon", "1",
        "--t", "1,1,1", "--field-exp", "1",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["order"] == "2"
    assert report["divides"]["delta_f"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--epsilon", "-1", "--d", "6", "--q", "2"],
        ["oracle", "verify", "--group", "GL", "--d", "2", "--q", "2"],
    ],
)
@pytest.mark.parametrize("budget", ["0", "-7"])
def test_budget_flag_must_be_positive(capsys, argv, budget):
    # --budget checks what E1FORGE_BUDGET checks, at parse time
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert code == 2 and out == ""
    assert f"argument --budget: must be >= 1, got {budget}" in err


def test_budget_past_memory_exits_two(capsys, monkeypatch):
    # GL_3(256) passes both budget guards at 10^23, but its 256^3-row code
    # table does not fit in memory; the allocation failure is simulated
    def out_of_memory(field, d):
        raise MemoryError

    monkeypatch.setattr("e1forge.oracle.code_tables", out_of_memory)
    code, out, err = run(
        capsys,
        "oracle", "verify", "--group", "GL", "--d", "3", "--q", "256",
        "--budget", "1" + "0" * 23,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--budget" in err
    assert err.count("\n") == 1  # no traceback


def test_budget_env_guard(capsys, monkeypatch):
    # the real unitary space of d = 6, q = 2 has q^3 = 8 members
    monkeypatch.setenv("E1FORGE_BUDGET", "7")
    code, _, err = run(capsys, "sweep", "--epsilon", "-1", "--d", "6", "--q", "2")
    assert code == 2
    monkeypatch.setenv("E1FORGE_BUDGET", "junk")
    code, _, err = run(capsys, "sweep", "--epsilon", "-1", "--d", "6", "--q", "2")
    assert code == 2


def test_sweep_reaches_d10_at_q4(capsys):
    # the budget counts the q^5 = 1024 real unitary polynomials, not 16^10
    code, out, _ = run(capsys, "sweep", "--epsilon", "-1", "--d", "10", "--q", "4")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["classes"] == report["nonempty_case_sets"] == "1023"


@pytest.mark.parametrize("name", ["GU_5_4", "GU_6_2", "GU_10_4", "GL_6_4", "GL_12_4"])
def test_sweep_report_is_byte_identical(name, capsys):
    # stdout byte for byte, case histogram included; CI compares GL_15(4),
    # GU_15(4) and GL_18(4) with their goldens the same way
    kind, d, q = name.split("_")
    epsilon = "1" if kind == "GL" else "-1"
    assert main(["sweep", "--epsilon", epsilon, "--d", d, "--q", q]) == 0
    golden = DATA / "sweep" / f"{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "epsilon,d,space", [("1", "14289", "4^7144"), ("-1", "14285", "4^7142")]
)
def test_sweep_past_the_budget_names_its_space_as_a_power(capsys, epsilon, d, space):
    # 4^7144 has more digits than Python's integer-string limit (4,300)
    code, out, err = run(capsys, "sweep", "--epsilon", epsilon, "--d", d, "--q", "4")
    assert (code, out) == (2, "")
    assert err == f"error: enumeration space {space} exceeds budget 10000000\n"


@pytest.mark.parametrize(
    "xi", ["(x+1)^27", "(x+1)(x+2)^13(x+525177)^13"]  # 525177 = 1/2 in GF(2^20)
)
def test_classify_prints_integers_past_the_string_limit_in_full(capsys, xi):
    # |GL_27(2^20)| has 4,390 digits, and the case (c) bound of the second
    # class 4,583: every integer of the report comes out as plain digits
    argv = ["--epsilon", "1", "--d", "27", "--q", "1048576", "--xi", xi]
    code, out, _ = run(capsys, "classify", *argv)
    assert code == 0
    report = json.loads(out)["report"]
    cls = semisimple.semisimple_class(1, 27, 1 << 20, parse_xi(xi, make_field(20), 27))
    texts = [report["order"], report["odd_index"]]
    values = [cls.shape.order, semisimple.index_odd_part(cls)]
    if report["cases"]:
        texts.append(report["witnesses"]["c"]["bound_fourth_power"])
        witness = semisimple.classify_gudprep(cls).witnesses["c"]
        values.append(witness["bound_fourth_power"])
    assert max(values) > 10**4300
    for text, value in zip(texts, values):
        assert text.isdigit() and decimal.Decimal(text) == value


def test_sweep_d7_q4_runs_the_classifier(capsys):
    # gcd(7, 4 + 1) = 1 and d = 4 < 5 put the group outside the classifier:
    # one configuration error, before any class is enumerated
    for d, message in [("7", "gcd(d, q - eps) > 1"), ("4", "d >= 5")]:
        code, out, err = run(capsys, "sweep", "--epsilon", "-1", "--d", d, "--q", "4")
        assert code == 2 and out == ""
        assert err == f"error: classifier needs {message}\n"


def test_auto_order_of_a_primitive_word_exits_zero(capsys):
    # diag(1, x + 1) in GL_2(2^20) modulo the centre has order 2^20 - 1
    code, out, _ = run(
        capsys, "auto-order", "--d", "2", "--q", "1048576", "--epsilon", "1",
        "--t", "1,3",
    )
    assert code == 0 and json.loads(out)["report"]["order"] == "1048575"


AUTO_ORDER_GOLDEN = {
    # the README's two auto-order lines, and a word of order 2^20 - 1
    "GL_3_4": ["--d", "3", "--q", "4", "--epsilon", "1", "--t", "1,2,3",
               "--field-exp", "1"],
    "GU_2_1024": ["--d", "2", "--q", "1024", "--epsilon", "-1", "--t", "2,748750"],
    "GL_2_1048576": ["--d", "2", "--q", "1048576", "--epsilon", "1", "--t", "1,3"],
}


@pytest.mark.parametrize("name", sorted(AUTO_ORDER_GOLDEN))
def test_auto_order_report_is_byte_identical(name, capsys):
    # stdout as composing word by word gave it (GL_2(2^20): the closed form)
    assert main(["auto-order", *AUTO_ORDER_GOLDEN[name]]) == 0
    golden = DATA / "auto_order" / f"{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_tsv_format(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--id", "trivial-positive", "--format", "tsv",
    )
    assert code == 0
    assert out.startswith("key\tvalue")


def test_parse_xi_forms():
    field = make_field(1, 2)
    p = parse_xi("(x+1)^2(x+w)^2(x+w2)^2", field, 6)
    assert p.degree == 6
    q = parse_xi("[1,0,0,0,0,0,1]", field, 6)
    assert p == q
    with pytest.raises(UsageError):
        parse_xi("(x+9)", field, 1)
    with pytest.raises(UsageError):
        parse_xi("x^2+1", field, 2)
    with pytest.raises(UsageError):
        parse_xi("(x+1)^2(x+w)^5", field, 6)
    with pytest.raises(UsageError):
        parse_xi("[1 1,1]", field, 1)  # digits split by a space


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
