import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclie.cli import main, make_parser
from mclie.defs import BUILTIN_HELP
from mclie.linalg import QQ, GradedElement


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_homology_sphere_all_zero(capsys):
    rc, out, _ = run_cli(["homology", "--builtin", "sphere"], capsys)
    assert rc == 0
    assert "H_-1 = 0" in out and "H_-2 = 0" in out


def test_mc_moduli_g_s_three(capsys):
    rc, out, _ = run_cli(["mc-moduli", "--builtin", "g_S", "--size", "3"], capsys)
    assert rc == 0
    assert "classes = 4" in out
    assert "completeness-certificate: PASS" in out


def test_verify_theorem_f_line_zero(capsys):
    rc, out, _ = run_cli(["verify", "theorem-f", "--builtin", "abelian:1:0",
                          "--builtin", "zero", "--weight", "4"], capsys)
    assert rc == 0
    assert "moduli(product) = 2" in out
    assert "moduli(factors) = 1+1" in out
    assert "moduli-bijection: PASS" in out


def test_mc_constraints_prints_g_s_system(capsys):
    rc, out, _ = run_cli(["mc-constraints", "--builtin", "g_S:2",
                          "--simplex", "1"], capsys)
    assert rc == 0
    assert "poly-degree" not in out
    # the three equation shapes of the discrete-space system
    assert "da[x1]" in out                      # d alpha = 0
    assert "a[x1]*a[x1]" in out                 # alpha(1 - alpha) = 0
    assert "a[x1]*a[x2]" in out                 # orthogonality


def test_check_builtins(capsys):
    rc, out, _ = run_cli(["check", "--builtin", "sphere", "--builtin",
                          "heisenberg", "--builtin", "qxq"], capsys)
    assert rc == 0
    assert out.count("PASS") == 3


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.def"
    bad.write_text("kind dgla\nbasis x\n")
    rc, out, err = run_cli(["homology", str(bad)], capsys)
    assert rc == 2
    assert "line 2" in err


def test_unknown_builtin_exit_code(capsys):
    rc, out, err = run_cli(["homology", "--builtin", "nonsense"], capsys)
    assert rc == 2


def test_definition_file_roundtrip(tmp_path, capsys):
    d = tmp_path / "sphere.def"
    d.write_text("""
kind free-dgla
weight 2
generator x -1
d x = -1/2 [x,x]
""")
    rc, out, _ = run_cli(["homology", str(d)], capsys)
    assert rc == 0
    assert "H_-1 = 0" in out


def test_heavy_generators_finish(tmp_path, capsys):
    # five weight-6 generators beside a at weight 12: the Lyndon walk
    # extends no word over the weight, so building the 46-element basis
    # (and the 76-element one at 13) costs about as much as its size
    d = tmp_path / "heavy.def"
    d.write_text("kind free-dgla\nweight 12\ngenerator a 0\n" +
                 "".join("generator %s 0 6\n" % n for n in "bcdef"))
    rc, out, err = run_cli(["homology", str(d)], capsys)
    assert (rc, err) == (0, "")
    assert "  H_0 = 46  [unstable]" in out.splitlines()


# the degree >= 0 part of tests/test_mc.py::_positive_degree_dgla() with
# z = [y, y] in degree 2: a cover equal to g, nonzero in degrees 0, 1 and 2
POSITIVE_DEGREE_DEF = """kind dgla
basis z 2
basis y 1
basis a 0
basis b 0
basis c 0
bracket y y = 1 z
bracket a b = 1 b
bracket a c = 1 c
bracket a y = 1 y
bracket a z = 2 z
d y = 1 b - 1 c
"""


def test_verify_components_counts_vacuous_degrees(tmp_path, capsys):
    # a degree where neither the cover nor g^xi has a basis element
    # compares 0 with 0: the report counts those apart from the others
    d = tmp_path / "positive.def"
    d.write_text(POSITIVE_DEGREE_DEF)
    for ref, line in [(str(d), "3 checked, 1 vacuous"),
                      ("sphere", "0 checked, 8 vacuous"),
                      ("heisenberg", "1 checked, 3 vacuous"),
                      # the cover of g^x is 0 in degree 0, where g^x has a
                      ("f_xa:3", "2 checked, 6 vacuous"),
                      ("g_S:2", "0 checked, 12 vacuous")]:
        rc, out, err = run_cli(["verify", "components", ref], capsys)
        assert (rc, err) == (0, ""), ref
        lines = out.splitlines()
        assert "  degrees = %s  [H_0..H_3 per class]" % line in lines, ref
        assert lines[-1] == "cover-homology-isomorphisms: PASS"


def test_cdga_definition_and_split(tmp_path, capsys):
    d = tmp_path / "qxq.def"
    d.write_text("""
kind cdga
basis 1 0
basis e 0
unit 1
mul e e = 1 e
augment 1 = 1
augment e = 0
""")
    rc, out, _ = run_cli(["split", str(d)], capsys)
    assert rc == 0
    assert "factors = 2" in out
    assert "connected-factors: PASS" in out


def test_split_with_a_24_digit_structure_constant(tmp_path, capsys):
    # H^0 = Q x Q with e e = 10^23 e: the idempotents are e / 10^23 and
    # 1 - e / 10^23, found without trial division of 10^23
    d = tmp_path / "long.def"
    d.write_text("kind cdga\nbasis 1 0\nbasis e 0\nunit 1\n"
                 "mul e e = 100000000000000000000000 e\n")
    rc, out, err = run_cli(["split", str(d)], capsys)
    assert rc == 0 and err == ""
    assert "  factor 0 (strict): idempotent 1/100000000000000000000000 e" in out.splitlines()
    assert out.splitlines()[-1] == "connected-factors: PASS"


def test_localize_a_table_with_large_coprime_constants(tmp_path, capsys):
    # p = (2^61 - 1)/(10^30 + 57) e for an idempotent e, on which u
    # vanishes; the base component keeps q, r, t and the acyclic cone s, ds
    p, q = 2 ** 61 - 1, 10 ** 30 + 57
    d = tmp_path / "large.def"
    d.write_text("kind cdga\nbasis one 0\nbasis p 0\nbasis q 0\nbasis r -1\nbasis t -1\n"
                 "basis s -1\nbasis ds 0\nunit one\nmul p p = %d/%d p\nmul q r = %d/%d t\n"
                 "d s = %d/%d ds\n" % (p, q, q, p, p, q))
    rc, out, err = run_cli(["localize", str(d), "--at", "one - %d/%d p + %d/%d q" % (q, p, p, q)],
                           capsys)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[-3:] == ["  H^-1 = 2  [exact]", "  H^0 = 2  [exact]",
                          "exactness H(A[u^-1]) = H(A)[u^-1]: PASS"]


def test_split_non_split_exit_code(capsys, tmp_path):
    # Q[eps]/eps^2 and Q[t]/(t^2 - 2): exit 1, one stderr line, no report
    path = tmp_path / "sqrt2.def"
    path.write_text("kind cdga\nbasis 1 0\nbasis t 0\nunit 1\nmul t t = 2 1\n")
    for source in (["--builtin", "q_eps"], [str(path)]):
        rc, out, err = run_cli(["split", *source], capsys)
        assert rc == 1 and out == ""
        assert err.splitlines() == [
            "NonSplitAlgebra: multiplication operator has irrational or non-semisimple spectrum"]


# recorded when idempotents still split by simultaneous eigenspaces of the
# multiplication operators, with the file named q3.def
SCRAMBLED_Q3_DIGEST = "25d6031695fdf8f692f16adc09647bd12574cf19a2b507858e872c15fc48a29e"


def test_split_scrambled_q3_report(capsys, tmp_path):
    # Q^3 on 1, f = E2 + 2 E3 and g = 1/2 E1 - 5/3 E3, with E1, E2, E3 its
    # primitive idempotents: every product mixes all three basis elements
    path = tmp_path / "q3.def"
    path.write_text("kind cdga\nbasis 1 0\nbasis f 0\nbasis g 0\nunit 1\n"
                    "mul f f = 6/7 1 + 1/7 f + -12/7 g\n"
                    "mul f g = -10/7 1 + 10/7 f + 20/7 g\n"
                    "mul g g = 65/42 1 + -65/42 f + -109/42 g\n")
    rc, out, err = run_cli(["split", str(path)], capsys)
    assert rc == 0 and err == ""
    assert "  factors = 3  [exact]\n" in out and out.endswith("connected-factors: PASS\n")
    report = out.replace(str(path), "q3.def")
    assert hashlib.sha256(report.encode()).hexdigest() == SCRAMBLED_Q3_DIGEST


def test_localize_report(capsys):
    rc, out, _ = run_cli(["localize", "--builtin", "qxq", "--at", "e"], capsys)
    assert rc == 0
    assert "exactness H(A[u^-1]) = H(A)[u^-1]: PASS" in out


def test_mc_verify_residual(capsys):
    rc, out, _ = run_cli(["mc-verify", "--builtin", "sphere",
                          "--element", "2 x"], capsys)
    assert rc == 1
    assert "maurer-cartan: FAIL" in out
    assert "[x,x]" in out
    rc, out, _ = run_cli(["mc-verify", "--builtin", "sphere",
                          "--element", "x"], capsys)
    assert rc == 0


def test_ce_table(capsys):
    rc, out, _ = run_cli(["ce", "--builtin", "heisenberg", "--words", "3",
                          "--range", "1..3"], capsys)
    assert rc == 0
    assert "H^1 = 2  [exact]" in out
    assert "H^2 = 2  [exact]" in out
    assert "H^3 = 1  [exact]" in out


def test_harrison_command(capsys):
    rc, out, _ = run_cli(["harrison", "--builtin", "qxq", "--weight", "2"],
                         capsys)
    assert rc == 0
    assert "dim_-1 = 1" in out and "dim_-2 = 1" in out


def test_verify_free_product_cohomology(capsys):
    rc, out, _ = run_cli(["verify", "free-product-cohomology",
                          "--builtin", "heisenberg", "--builtin", "abelian:1:0",
                          "--weight", "4"], capsys)
    assert rc == 0
    assert "free-product-cohomology: PASS" in out


# four products at weights 2-5, including the weights where a relation of
# a factor reaches weight m - 1 or m or lies above m (heisenberg's [a,c]
# has weight 3), so the product cannot be cut to m - 1 there
FREE_PRODUCT_PAIRS = [("heisenberg", "abelian:1:0"), ("abelian:2:0", "abelian:1:0"),
                      ("abelian:1:1", "abelian:1:0"), ("heisenberg", "heisenberg")]

# exit code, stdout and stderr of every run.  The 14 runs without a
# relation heavier than m are those recorded with g*h built at weight m;
# the two heisenberg runs at weight 2 build it at 3
FREE_PRODUCT_DIGEST = "877ed2961107c660f95b16112839be13d18da185051763899457ca4abeb0d993"


def test_free_product_cohomology_small_weights_digest(capsys):
    runs = []
    for pair in FREE_PRODUCT_PAIRS:
        for m in range(2, 6):
            argv = ["verify", "free-product-cohomology", *pair, "--weight", str(m)]
            runs.append((argv, *run_cli(argv, capsys)))
    assert [rc for _, rc, _, _ in runs].count(0) == 16
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == FREE_PRODUCT_DIGEST


def test_minimal_model_command(capsys):
    rc, out, _ = run_cli(["minimal-model", "--builtin", "heisenberg",
                          "--arity", "3"], capsys)
    assert rc == 0
    assert "differential-has-no-linear-part: PASS" in out


def test_minimal_model_runs_each_certificate_once(monkeypatch, capsys):
    # each verdict line is the result of the check that minimal_model ran
    from mclie.cehar import MinimalModel
    calls = {}
    for name in ("linear_part_is_zero", "quasi_iso_verified"):
        def counted(self, *args, _check=getattr(MinimalModel, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _check(self, *args)
        monkeypatch.setattr(MinimalModel, name, counted)
    for ref in ("heisenberg", "sphere", "f_xa:4"):
        calls.clear()
        rc, out, _ = run_cli(["minimal-model", ref], capsys)
        assert rc == 0
        assert calls == {"linear_part_is_zero": 1, "quasi_iso_verified": 1}, ref
        assert "differential-has-no-linear-part: PASS" in out
        assert "quasi-isomorphism-on-homology: PASS" in out


def test_reports_byte_identical(capsys):
    args = ["mc-moduli", "--builtin", "g_S", "--size", "2"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_json_sibling(tmp_path, capsys):
    j = tmp_path / "report.json"
    rc, out, _ = run_cli(["homology", "--builtin", "sphere", "--json", str(j)],
                         capsys)
    assert rc == 0
    data = json.loads(j.read_text())
    assert data["results"]["H_-1"]["value"] == 0
    # deterministic serialization
    first = j.read_text()
    run_cli(["homology", "--builtin", "sphere", "--json", str(j)], capsys)
    assert j.read_text() == first


def test_disjoint_product_command(capsys):
    rc, out, _ = run_cli(["disjoint-product", "--builtin", "abelian:1:0",
                          "--builtin", "zero", "--weight", "3"], capsys)
    assert rc == 0
    assert "distinguished MC element" in out


def test_resource_cap_exit_code(tmp_path, capsys):
    d = tmp_path / "big.def"
    d.write_text("""
kind free-dgla
weight 14
generator a 0
generator b 0
generator c 0
""")
    rc, out, err = run_cli(["homology", str(d)], capsys)
    assert rc == 3
    assert "resource cap" in err


def test_free_cdga_over_the_basis_cap_exits_3(capsys):
    # the CE algebra of f_xa:4 at word bound 9 has more monomials than
    # freelie.BASIS_SIZE_CAP, the cap both truncated free algebras read
    rc, out, err = run_cli(["ce", "f_xa:4", "--words", "9"], capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("resource cap: truncated basis would have at least ")
    assert err.endswith(" elements (cap 20000)\n") and err.count("\n") == 1


def test_mc_moduli_over_the_basis_cap_exits_3_quickly(capsys):
    # the basis cap must fire before any cost quadratic in the number of
    # generators, which at this size would run for minutes
    start = time.perf_counter()
    rc, out, err = run_cli(["mc-moduli", "g_S", "--size", "100000"], capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("resource cap: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 20


def test_every_builtin_passes_check(capsys):
    builtins = ["sphere", "zero", "g_S:2", "f_xa:3", "heisenberg",
                "abelian:2:1", "q", "qxq", "qk:3", "q_eps", "q_deg2",
                "omega:1:2"]
    args = ["check"]
    for b in builtins:
        args.extend(["--builtin", b])
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    assert out.count("PASS") == len(builtins)


# the arguments each builtin reads, in range
BUILTIN_ARGS = {"g_S": ["3"], "f_xa": ["3"], "abelian": ["1", "0"], "qk": ["2"],
                "omega": ["1", "2"]}


@pytest.mark.parametrize("key", sorted(BUILTIN_HELP))
def test_builtin_refuses_an_argument_it_does_not_read(key, capsys):
    name = key.split(":")[0]
    args = BUILTIN_ARGS.get(name, [])
    assert len(args) == key.count(":")
    rc, out, _ = run_cli(["check", "--builtin", ":".join([name] + args)], capsys)
    assert rc == 0 and "PASS" in out
    ref = ":".join([name] + args + ["7"])
    for argv in (["check", "--builtin", ref], ["check", ref]):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("parse error: builtin %r takes " % name)
        assert err.endswith(", got %r\n" % ref) and err.count("\n") == 1


def test_builtin_flags_still_override_arguments(capsys):
    rc, out, _ = run_cli(["harrison", "omega:1:3", "--weight", "2"], capsys)
    assert rc == 0
    assert "generators: T(dt1), T(t1*dt1), T(t1^2*dt1), T(t1), T(t1^2), T(t1^3)" in out
    rc, out, _ = run_cli(["check", "g_S", "--size", "3"], capsys)
    assert rc == 0 and "PASS" in out
    rc, _, err = run_cli(["homology", "f_xa:10:3"], capsys)
    assert rc == 2 and err == "parse error: builtin 'f_xa' takes at most 1 " \
        "argument, got 'f_xa:10:3'\n"


def _associativity_breaker_27(tmp_path):
    """27 basis elements in degree 0, one above the cdga triple cap, with
    (a a) b = c but a (a b) = 0."""
    d = tmp_path / "breaker27.def"
    labels = ["1", "a", "b", "c"] + ["z%d" % i for i in range(1, 24)]
    d.write_text("kind cdga\n" + "".join("basis %s 0\n" % lab for lab in labels)
                 + "unit 1\nmul a a = 1 a\nmul a b = 1 c\n")
    return d


def test_check_names_the_laws_its_caps_skip(tmp_path, capsys):
    d = _associativity_breaker_27(tmp_path)
    rc, out, _ = run_cli(["check", "--builtin", "g_S:8", str(d)], capsys)
    assert rc == 0
    assert out.splitlines()[2:] == [
        "  skipped associativity(%s) = 27  [basis elements > cap 26]" % d,
        "axioms(%s): PASS" % d,
        "  skipped Jacobi(builtin:g_S:8) = 44  [basis elements > cap 24]",
        "axioms(builtin:g_S:8): PASS"]


def test_check_under_the_caps_skips_nothing(capsys):
    rc, out, _ = run_cli(["check", "--builtin", "f_xa:3", "--builtin", "qk:3"],
                         capsys)
    assert rc == 0
    assert "skipped" not in out
    assert out.splitlines()[2:] == ["axioms(builtin:f_xa:3): PASS",
                                    "axioms(builtin:qk:3): PASS"]


def test_twisted_differential_in_definition_file(tmp_path, capsys):
    # the disjoint product of the line with the zero algebra, written out
    # as an explicit free-dgla definition with the twisted differential
    d = tmp_path / "line_u_zero.def"
    d.write_text("""
kind free-dgla
weight 4
generator a 0
generator x -1
d a = - [a,x]
d x = 1/2 [x,x]
""")
    rc, out, _ = run_cli(["check", str(d)], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["mc-moduli", str(d)], capsys)
    assert rc == 0
    assert "classes = 2" in out
    rc, out, _ = run_cli(["homology", str(d)], capsys)
    assert rc == 0
    for line in out.splitlines():
        if "[stable]" in line:
            assert "= 0 " in line


@pytest.mark.parametrize("args", [
    ["ce", "--builtin", "heisenberg", "--words", "0"],
    ["ce", "--builtin", "heisenberg", "--words", "-2"],
    ["homology", "--builtin", "f_xa:-1"],
    ["homology", "--builtin", "f_xa:0"],
    ["homology", "--builtin", "f_xa:x"],
    ["homology", "--builtin", "omega:0:0"],
    ["harrison", "--builtin", "qxq", "--weight", "0"],
    ["minimal-model", "--builtin", "heisenberg", "--arity", "1"],
    ["minimal-model", "--builtin", "heisenberg", "--arity", "5"],
    ["verify", "free-product-cohomology", "heisenberg", "abelian:1:0",
     "--weight", "4", "--words", "2"],
    ["verify", "free-product-cohomology", "heisenberg", "abelian:1:0",
     "--weight", "1"],
    ["homology", "f_xa:3", "--range", "3..1"],
])
def test_usage_errors_exit_2_without_traceback(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert "Traceback" not in err
    assert err.strip()


@pytest.mark.parametrize("args", [
    ["homology", "--builtin", "qk:0"],
    ["homology", "--builtin", "qk:-1"],
    ["homology", "--builtin", "qk", "--size", "0"],
    ["mc-moduli", "--builtin", "g_S", "--size", "-1"],
    ["mc-moduli", "--builtin", "g_S:-1"],
    ["homology", "--builtin", "abelian:-1:0"],
    ["homology", "--builtin", "abelian", "--size", "-1"],
])
def test_builtin_sizes_below_minimum_exit_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert "Traceback" not in err
    assert "size >= " in err


def test_smallest_builtin_sizes_build(capsys):
    rc, out, _ = run_cli(["homology", "--builtin", "qk:1"], capsys)
    assert rc == 0 and "H_0 = 1  [exact]" in out
    rc, out, _ = run_cli(["mc-moduli", "--builtin", "g_S:0"], capsys)
    assert rc == 0 and "classes = 1" in out


def test_abelian_mc_moduli_reports_h_minus_one_not_a_count(tmp_path, capsys):
    # pi_0 of an abelian dgla is the vector space H_-1 = Q^2, with
    # infinitely many classes: the report names the space and lists a
    # basis of it
    j = tmp_path / "r.json"
    rc, out, _ = run_cli(["mc-moduli", "abelian:2:-1", "--json", str(j)], capsys)
    assert rc == 0
    lines = out.splitlines()
    i = lines.index("  classes = Q^2  [abelian-linear, basis of H_-1]")
    assert lines[i + 1:i + 3] == ["  class 0: a1", "  class 1: a2"]
    assert json.loads(j.read_text())["results"]["classes"] == \
        {"value": "Q^2", "flag": "abelian-linear, basis of H_-1"}
    # H_-1 = 0: the one class 0, counted as before
    rc, out, _ = run_cli(["mc-moduli", "g_S:0", "--json", str(j)], capsys)
    assert rc == 0
    assert "  classes = 1  [abelian-linear]\n  class 0: 0\n" in out
    assert json.loads(j.read_text())["results"]["classes"] == \
        {"value": 1, "flag": "abelian-linear"}


@pytest.mark.parametrize("args", [
    ["localize", "--builtin", "qxq", "--at", "2 + e"],
    ["localize", "--builtin", "qxq", "--at", "e - 3"],
    ["mc-verify", "--builtin", "sphere", "--element", "1 + x"],
    ["mc-verify", "--builtin", "sphere", "--element", "2 1 x"],
])
def test_pending_coefficient_is_an_error(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("args", [
    ["mc-verify", "sphere", "--element", "1e5000 x"],
    ["mc-verify", "sphere", "--element", "-1/2 x + 1E-3 x"],
    ["localize", "qxq", "--at", "1e2000000 e"],
])
def test_exponent_notation_is_a_parse_error(args, capsys):
    # 1e5000 would be a 5001-digit coefficient, past what str() may print
    rc, out, err = run_cli(args, capsys)
    assert rc == 2 and not out
    assert err.startswith("parse error: exponent notation is not allowed")
    assert len(err.splitlines()) == 1


def test_parse_rational_refuses_exponent_notation():
    from mclie.defs import DefinitionError, parse_element, parse_rational
    assert parse_rational("-3/7") == QQ(-3, 7) and parse_rational("1.5") == QQ(3, 2)
    for tok in ("1e5", "2E-3", ".5e1", "-1_0e+2"):
        with pytest.raises(DefinitionError, match="exponent notation"):
            parse_rational(tok, 4)
    # labels that merely hold an e are labels
    degs = {"e": 0, "1e": 0, "e5": 0}
    assert parse_element("2 e + 3 1e - e5", degs).coeffs == \
        {(0, "e"): 2, (0, "1e"): 3, (0, "e5"): -1}


def test_long_exact_result_prints_whole(tmp_path, capsys):
    # the residual (c^2 - c)/2 [x,x] of c = 2,200 sevens has 4,400 digits,
    # past Python's default int -> str bound; main lifts it and restores it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        rc, out, err = run_cli(["mc-verify", "sphere", "--element", "7" * 2200 + " x",
                                "--json", str(tmp_path / "r.json")], capsys)
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, err) == (1, "")
    assert out.endswith("maurer-cartan: FAIL\n")
    c = (10 ** 2200 - 1) // 9 * 7
    sys.set_int_max_str_digits(0)
    try:
        residual = "%d [x,x]" % ((c * c - c) // 2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(residual) == 4400 + len(" [x,x]")
    assert "  residual = %s  [exact]\n" % residual in out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["results"]["residual"]["value"] == residual
    # a numeral of exactly the bound still reads
    from mclie.defs import parse_element
    assert parse_element("7" * 4300 + " x", {"x": -1}).coeff(-1, "x") == \
        (10 ** 4300 - 1) // 9 * 7


@pytest.mark.parametrize("args, digits", [
    (["mc-verify", "sphere", "--element", "7" * 5000 + " x"], 5000),
    (["mc-verify", "sphere", "--element", "x + -1/" + "3" * 4301 + " x"], 4302),
    (["localize", "qxq", "--at", "1." + "5" * 4400 + " e"], 4401),
    (["mc-moduli", "g_S:" + "1" * 4301], 4301),
])
def test_numeral_over_the_digit_bound_is_a_parse_error(args, digits, capsys):
    rc, out, err = run_cli(args, capsys)
    assert (rc, out) == (2, "")
    assert err == ("parse error: a numeral of %d digits is longer than the 4300 "
                   "allowed\n" % digits)


@pytest.mark.parametrize("builtin, at, h0", [
    ("q", "1", 1),
    ("qxq", "1", 2),
    ("qxq", "2 1", 2),
    ("qxq", "- 1", 2),
    ("qxq", "1 + e", 2),  # (2, 1) on the two factors
    ("qxq", "1 - e", 1),  # (0, 1)
    ("qxq", "1 e", 1),  # a coefficient in front of a label: e
    ("qk:3", "1", 3),
    ("qk:3", "2 1 - 2 e1", 2),
])
def test_numeric_labels_name_the_unit(builtin, at, h0, capsys):
    rc, out, err = run_cli(["localize", "--builtin", builtin, "--at", at],
                           capsys)
    assert rc == 0, err
    assert "H^0 = %d  [exact]" % h0 in out


def test_parse_element_numeric_tokens():
    from mclie.defs import parse_element
    degs = {"1": 0, "e": 0}
    assert parse_element("2 1", degs).coeffs == {(0, "1"): 2}
    assert parse_element("1 1", degs).coeffs == {(0, "1"): 1}
    assert parse_element("-1/2 e + 0", degs).coeffs == {(0, "e"): QQ(-1, 2)}
    assert parse_element("0 e", degs).is_zero()
    assert parse_element("0", {"e": 0}).is_zero()


def test_localization_failure_exits_1(monkeypatch, capsys):
    from mclie.linalg import Coordinates
    monkeypatch.setattr(Coordinates, "coords", lambda self, vec: None)
    rc, out, err = run_cli(["localize", "--builtin", "qxq", "--at", "e"],
                           capsys)
    assert rc == 1
    assert err.startswith("LocalizationFailure: ")
    assert len(err.strip().splitlines()) == 1


def test_localize_even_degree_unit_exits_1(capsys):
    rc, out, err = run_cli(["localize", "--builtin", "q_deg2", "--at", "w"],
                           capsys)
    assert rc == 1
    assert err.startswith("EvenDegreeUnit: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_localize_computes_each_homology_once(monkeypatch, capsys):
    import mclie.linalg
    calls = []
    inner = mclie.linalg.HomologyReport

    def counted(space, *args):
        calls.append(space)
        return inner(space, *args)

    # Cdga.homology is linalg._DgAlgebra.homology, which looks the name up there
    monkeypatch.setattr(mclie.linalg, "HomologyReport", counted)
    rc, out, err = run_cli(["localize", "--builtin", "qk:3", "--at", "2 1 - e1"],
                           capsys)
    assert rc == 0
    # one on A[u^-1], one on A
    assert len(calls) == 2
    assert "H^0 = 3  [exact]" in out


@pytest.mark.parametrize("argv", [
    ["ce", "f_xa:3", "--words", "3"],
    ["homology", "f_xa:6"],
    ["homology", "abelian:2:0"],
    ["verify", "free-product-cohomology", "heisenberg", "abelian:1:0", "--weight", "5"]])
def test_dims_only_reports_never_compute_cycles(argv, monkeypatch, capsys):
    # these reports read ranks per cell only: with the kernel of d out of
    # reach they still exit 0 with the same report
    import mclie.linalg
    want = run_cli(argv, capsys)

    def refuse(d, n):
        raise AssertionError("cycles computed in degree %d" % n)

    monkeypatch.setattr(mclie.linalg, "_cycles", refuse)
    assert run_cli(argv, capsys) == want
    assert want[0] == 0


def test_ce_word_bound_one(capsys):
    rc, out, err = run_cli(["ce", "heisenberg", "--words", "1"], capsys)
    assert rc == 0
    # H^1 needs the length-2 part of d, which word bound 1 cuts off
    assert "H^1 = 3  [unstable]" in out


def test_failed_certificate_exits_1(monkeypatch, capsys):
    from mclie.cehar import MinimalModel
    monkeypatch.setattr(MinimalModel, "linear_part_is_zero",
                        lambda self: False)
    rc, out, err = run_cli(["minimal-model", "--builtin", "heisenberg"],
                           capsys)
    assert rc == 1
    assert err.startswith("CertificateFailure: ")
    assert len(err.strip().splitlines()) == 1


# each failure mclie defines: (module, class, exit code, stderr prefix)
EXIT_POLICY = [
    ("linalg", "McLieError", 1, "McLieError"),
    ("linalg", "NonSplitAlgebra", 1, "NonSplitAlgebra"),
    ("linalg", "DegreeMismatch", 2, "DegreeMismatch"),
    ("linalg", "CertificateFailure", 1, "CertificateFailure"),
    ("freelie", "TruncationTooLarge", 3, "resource cap"),
    ("freelie", "NotLieElement", 1, "NotLieElement"),
    ("freelie", "InvalidDifferential", 2, "InvalidDifferential"),
    ("freelie", "InvalidPresentation", 2, "InvalidPresentation"),
    ("dgla", "NotMaurerCartan", 1, "NotMaurerCartan"),
    ("dgla", "NotNilpotent", 1, "NotNilpotent"),
    ("dgla", "AxiomViolation", 1, "AxiomViolation"),
    ("cdga", "OddDegreeUnit", 1, "OddDegreeUnit"),
    ("cdga", "NonCocycle", 1, "NonCocycle"),
    ("cdga", "ZeroCohomology", 1, "ZeroCohomology"),
    ("cdga", "NoAugmentation", 1, "NoAugmentation"),
    ("cdga", "CdgaAxiomViolation", 1, "CdgaAxiomViolation"),
    ("cdga", "LocalizationFailure", 1, "LocalizationFailure"),
    ("cdga", "EvenDegreeUnit", 1, "EvenDegreeUnit"),
    ("mc", "IncompleteSolve", 1, "IncompleteSolve"),
    ("mc", "SolveBudgetExhausted", 3, "resource cap"),
    ("defs", "DefinitionError", 2, "parse error"),
    ("cli", "UsageError", 2, "error"),
]


@pytest.mark.parametrize("module,name,code,prefix", EXIT_POLICY,
                         ids=[row[1] for row in EXIT_POLICY])
def test_each_failure_exits_with_its_code(monkeypatch, capsys, module, name, code, prefix):
    import importlib
    import mclie.cli
    cls = getattr(importlib.import_module("mclie." + module), name)

    def fail(ns, argv):
        raise cls("boom")
    monkeypatch.setitem(mclie.cli.COMMANDS, "check", fail)
    assert run_cli(["check", "zero"], capsys) == (code, "", "%s: boom\n" % prefix)


def test_every_failure_derives_from_mclie_error():
    import importlib
    import inspect
    import pkgutil
    import mclie
    from mclie.linalg import McLieError
    defined = set()
    for info in pkgutil.iter_modules(mclie.__path__):
        module = importlib.import_module("mclie." + info.name)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                assert issubclass(obj, McLieError), name
                defined.add((info.name, name))
    assert defined == {(module, name) for module, name, _, _ in EXIT_POLICY}


def test_split_with_unit_a_boundary_exits_1(tmp_path, capsys):
    # d y = 1 makes the unit a boundary: H^0 = 0 has nothing to split
    d = tmp_path / "unit_boundary.def"
    d.write_text("""
kind cdga
basis 1 0
basis y -1
unit 1
d y = 1 1
""")
    rc, out, err = run_cli(["split", str(d)], capsys)
    assert rc == 1
    assert err.startswith("ZeroCohomology: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_split_checks_associativity_of_h0_above_the_triple_cap(tmp_path, capsys):
    # construction checks associativity only up to 27 - 1 basis elements;
    # H^0 is the whole algebra and is checked on every triple
    rc, out, err = run_cli(["split", str(_associativity_breaker_27(tmp_path))], capsys)
    assert rc == 1
    assert err.startswith("CdgaAxiomViolation: associativity fails on (")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("table,message", [
    ("kind cdga\nbasis 1 0\nbasis a 2\nunit 1\nmul a a = 1 a\n",
     "product of (a, a) not in degree -4"),
    ("kind dgla\nbasis a 0\nbasis b 0\nbasis y -1\nbracket a b = 1 y\n",
     "product of (a, b) not in degree 0"),
    ("kind cdga\nbasis 1 0\nbasis e 2\nunit e\n",
     "the unit e is not in degree 0"),
], ids=["cdga-product", "dgla-bracket", "cdga-unit"])
def test_table_in_the_wrong_degree_exits_2(tmp_path, capsys, table, message):
    # a product or a unit off its degree is no graded algebra: refused as
    # the table is read, before any axiom check
    d = tmp_path / "wrong_degree.def"
    d.write_text(table)
    rc, out, err = run_cli(["check", str(d)], capsys)
    assert (rc, out) == (2, "")
    assert err == "DegreeMismatch: %s\n" % message


@pytest.mark.parametrize("command", ["check", "homology"])
@pytest.mark.parametrize("text,message", [
    ("kind dgla\nbasis a -1\nbasis a -1\n",
     "parse error: basis label 'a' declared twice (line 3)"),
    ("kind dgla\nbasis a 0\nbasis a 1\n",
     "parse error: basis label 'a' declared twice (line 3)"),
    ("kind dgla\nbasis a 0\nbasis b -1\nbasis a -1\nd a = 1 b\n",
     "parse error: basis label 'a' declared twice (line 4)"),
    ("kind cdga\nbasis 1 0\nbasis a 0\nbasis a 1\nunit 1\n",
     "parse error: basis label 'a' declared twice (line 4)"),
    ("kind free-dgla\nweight 2\ngenerator a 0\ngenerator a -1\n",
     "InvalidPresentation: duplicate generator 'a'"),
    ("kind free-dgla\nweight 0\ngenerator a 0\n",
     "InvalidPresentation: weight bound must be >= 1"),
    ("kind free-dgla\nweight -1\ngenerator a 0\n",
     "InvalidPresentation: weight bound must be >= 1"),
    ("kind free-dgla\nweight 2\ngenerator a 0 0\n",
     "InvalidPresentation: generator weights must be >= 1"),
    ("kind free-dgla\nweight 2\ngenerator a 0 -2\n",
     "InvalidPresentation: generator weights must be >= 1"),
], ids=["basis-same-degree", "basis-other-degree", "basis-in-d", "basis-cdga",
        "generator", "weight-0", "weight-negative", "generator-weight-0",
        "generator-weight-negative"])
def test_malformed_definitions_exit_2(tmp_path, capsys, command, text, message):
    # a label declared twice, in any degree, is refused as the file is
    # read; a free dgla's generators and weights by FreeLieTruncation
    d = tmp_path / "malformed.def"
    d.write_text(text)
    assert run_cli([command, str(d)], capsys) == (2, "", message + "\n")


@pytest.mark.parametrize("args", [
    ["disjoint-product", "FILE", "zero"],
    ["free-product", "FILE", "zero"],
    ["verify", "free-product-cohomology", "FILE", "abelian:1:0"],
])
@pytest.mark.parametrize("table", ["", "bracket a b = 1 [a,b]\n"],
                         ids=["abelian", "bracket"])
def test_generator_named_like_a_bracket_exits_2(tmp_path, capsys, args, table):
    # presentation_of names one generator per basis label, so the bracket
    # of a and b would get the label of the generator [a,b]
    d = tmp_path / "bracket_label.def"
    d.write_text("kind dgla\nbasis a 0\nbasis b 0\nbasis [a,b] 0\n" + table)
    assert run_cli(["check", str(d)], capsys)[0] == 0
    argv = [str(d) if a == "FILE" else a for a in args] + ["--weight", "3"]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("InvalidPresentation: two basis elements have the label [a,b]")
    assert len(err.strip().splitlines()) == 1


def test_not_maurer_cartan_exits_1(monkeypatch, capsys):
    import mclie.dgla
    monkeypatch.setattr(mclie.dgla, "is_mc",
                        lambda g, xi: (False, GradedElement()))
    rc, out, err = run_cli(["disjoint-product", "--builtin", "abelian:1:0",
                            "--builtin", "zero", "--weight", "3"], capsys)
    assert rc == 1
    assert err.startswith("NotMaurerCartan: ")
    assert len(err.strip().splitlines()) == 1


def test_not_nilpotent_gauge_parameter_exits_1(monkeypatch, capsys):
    # mc-moduli f_xa:3 has g_0 != 0, so pi_0 tries gauge moves between
    # its vertices through the gauge series
    import mclie.mc
    from mclie.dgla import NotNilpotent

    def not_nilpotent(g, a, xi):
        raise NotNilpotent("ad of the gauge parameter is not nilpotent")
    monkeypatch.setattr(mclie.mc, "_gauge_series", not_nilpotent)
    rc, out, err = run_cli(["mc-moduli", "f_xa:3"], capsys)
    assert (rc, out) == (1, "")
    assert err == "NotNilpotent: ad of the gauge parameter is not nilpotent\n"


@pytest.mark.parametrize("args", [
    ["verify", "theorem-f"],
    ["verify", "components"],
    ["verify", "free-product-cohomology"],
    ["verify", "free-product-cohomology", "--builtin", "heisenberg"],
])
def test_verify_without_enough_definitions_exits_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("args,flag,bound", [
    (["mc-moduli", "--builtin", "f_xa:3", "--support", "0"], "--support", 1),
    (["mc-moduli", "--builtin", "f_xa:3", "--support", "-1"], "--support", 1),
    (["verify", "components", "--builtin", "sphere", "--support", "0"], "--support", 1),
    (["mc-constraints", "--builtin", "g_S:2", "--simplex", "-1"],
     "--simplex", 0),
])
def test_out_of_range_counts_exit_2(args, flag, bound, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith("argument %s: expected an integer >= %d, got %s"
                              % (flag, bound, args[args.index(flag) + 1]))


def test_smallest_valid_counts_still_run(capsys):
    rc, out, _ = run_cli(["mc-moduli", "--builtin", "f_xa:3", "--support", "1"], capsys)
    assert rc == 0
    assert "classes = 2" in out
    rc, out, _ = run_cli(["mc-constraints", "--builtin", "g_S:2", "--simplex", "0"], capsys)
    assert rc == 0


@pytest.mark.parametrize("args, message", [
    (["ce", "qxq", "--words", "2"], "qxq is a cdga; ce takes a dgla"),
    (["mc-moduli", "qxq"], "qxq is a cdga; mc-moduli takes a dgla"),
    (["mc-constraints", "qxq", "--simplex", "1"],
     "qxq is a cdga; mc-constraints takes a dgla"),
    (["minimal-model", "q"], "q is a cdga; minimal-model takes a dgla"),
    (["free-product", "qxq", "q", "--weight", "2"],
     "qxq is a cdga; free-product takes a dgla"),
    (["free-product", "heisenberg", "q", "--weight", "2"],
     "q is a cdga; free-product takes a dgla"),
    (["verify", "components", "qxq"], "qxq is a cdga; verify takes a dgla"),
    (["split", "heisenberg"], "heisenberg is a dgla; split takes a cdga"),
    (["localize", "heisenberg", "--at", "a"],
     "heisenberg is a dgla; localize takes a cdga"),
    (["harrison", "heisenberg", "--weight", "2"],
     "heisenberg is a dgla; harrison takes a cdga"),
])
def test_definition_of_the_wrong_kind_exits_2(args, message, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("args", [
    ["homology", "heisenberg", "--range", "x"],
    ["homology", "heisenberg", "--range", "1..x"],
    ["homology", "heisenberg", "--range", "1"],
    ["ce", "heisenberg", "--words", "2", "--range", "x"],
    ["ce", "heisenberg", "--words", "2", "--range", "1..x"],
    ["ce", "heisenberg", "--words", "2", "--range", "1"],
])
def test_malformed_range_exits_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("usage: ")
    assert err.splitlines()[-1].endswith(
        "error: argument --range: expected a degree range a..b, got %s" % args[-1])


@pytest.mark.parametrize("args", [
    ["homology", "f_xa:3", "--range", "3..1"],
    ["ce", "heisenberg", "--words", "2", "--range", "1..-1"],
])
def test_inverted_range_exits_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == "" and "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "mclie %s: error: argument --range: expected a degree range a..b with "
        "a <= b, got %s" % (args[0], args[-1])]


def test_range_filters_degrees(capsys):
    rc, out, _ = run_cli(["homology", "heisenberg", "--range", "0..0"], capsys)
    assert rc == 0
    assert [line for line in out.splitlines() if line.startswith("  H_")] == \
        ["  H_0 = 3  [stable]"]
    rc, out, _ = run_cli(["ce", "heisenberg", "--words", "2", "--range", "1..1"],
                         capsys)
    assert rc == 0
    assert [line.split(" = ")[0] for line in out.splitlines()
            if line.startswith("  H^")] == ["  H^1"]
    # a range starting at a negative degree, as a separate argument or
    # joined with "=": the same report apart from the echoed command line
    reports = []
    for flag in (["--range", "-2..0"], ["--range=-2..0"]):
        rc, out, _ = run_cli(["ce", "f_xa:3", "--words", "3"] + flag, capsys)
        assert rc == 0
        reports.append(out.splitlines()[1:])
    assert reports[0] == reports[1]
    assert [line.split(" = ")[0] for line in reports[0]
            if line.startswith("  H^")] == ["  H^-2", "  H^-1", "  H^0"]


@pytest.mark.parametrize("argv", [
    ["mc-verify", "sphere", "--element", "-x"],
    ["mc-verify", "sphere", "--element", "- 2 x"],
    ["mc-verify", "sphere", "--element", "-1/2 x + 3 x"],
    ["localize", "qxq", "--at", "-e"],
    ["localize", "qxq", "--at", "-2 1 + e"],
    ["localize", "--at", "-e", "qxq"],
])
def test_element_values_may_begin_with_a_minus(argv, capsys):
    # read as the value of its flag, as if joined with "="; the report
    # echoes the command line as given
    i = argv.index("--element" if "--element" in argv else "--at")
    joined = argv[:i] + [argv[i] + "=" + argv[i + 1]] + argv[i + 2:]
    rc, out, err = run_cli(argv, capsys)
    rc_joined, out_joined, err_joined = run_cli(joined, capsys)
    assert (rc, out.splitlines()[1:], err) == \
        (rc_joined, out_joined.splitlines()[1:], err_joined)
    assert rc in (0, 1) and err == ""
    assert out.splitlines()[0] == "command: " + " ".join(argv)


@pytest.mark.parametrize("argv", [
    ["localize", "qxq", "--at", "--json"],
    ["localize", "qxq", "--at", "-h"],
    ["mc-verify", "sphere", "--element", "--builtin", "x"],
])
def test_an_option_after_an_element_flag_stays_an_option(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1].endswith("expected one argument")


def test_parser_reuse_leaks_no_state(tmp_path):
    # main builds its parser once per process: every argv, in any order,
    # gives what it gives on a freshly built parser
    json_out = str(tmp_path / "out.json")
    argvs = [
        ["check", "--builtin", "sphere", "--builtin", "qxq"],
        ["check", "heisenberg"],
        ["--help"],
        ["ce", "--help"],
        ["nonsense", "sphere"],
        ["ce", "heisenberg"],
        ["localize", "qxq"],
        ["ce", "f_xa:3", "--words", "3", "--range", "-2..0"],
        ["homology", "heisenberg", "--range", "-2..0", "--json", json_out],
        ["mc-verify", "sphere", "--element", "-x", "--json", json_out],
        ["localize", "--builtin", "qxq", "--at", "-e"],
        ["localize", "qk:2", "--at", "e1"],
    ]

    def run(argv):
        if os.path.exists(json_out):
            os.remove(json_out)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        payload = None
        if os.path.exists(json_out):
            with open(json_out) as f:
                payload = f.read()
        return rc, out.getvalue(), err.getvalue(), payload

    fresh = []
    for argv in argvs:
        make_parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 0, 0, 0, 2, 2, 2, 0, 0, 1, 0, 0]
    order = list(range(len(argvs))) + random.Random(31).sample(range(len(argvs)),
                                                                len(argvs))
    make_parser.cache_clear()
    for i in order:
        assert run(argvs[i]) == fresh[i], argvs[i]
    info = make_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(order) - 1)


@pytest.mark.parametrize("args, message", [
    (["mc-verify", "heisenberg", "--element", "a"],
     "DegreeMismatch: MC candidates must be homogeneous of degree -1"),
    (["harrison", "qxq", "--weight", "1"],
     "InvalidDifferential: d(T(e)) has the term [T(e),T(e)], beyond the "
     "weight-1 truncation"),
    (["harrison", "omega:1:2", "--weight", "1"],
     "InvalidDifferential: d(T(t1*dt1)) has the term [T(dt1),T(t1)], beyond "
     "the weight-1 truncation"),
    (["free-product", "heisenberg", "zero", "--weight", "2"],
     "InvalidPresentation: a relation has the term [a,c], beyond the "
     "weight-2 truncation"),
    (["verify", "free-product-cohomology", "sphere", "abelian:1:0",
      "--weight", "3"],
     "error: free-product-cohomology needs definitions with zero differential"),
])
def test_inputs_beyond_a_definition_exit_2(args, message, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err == message + "\n"


FREE_DGLA_COEFFS = ["1", "-1", "3", "-1/2", "2/3", "-5/7", "1/11"]


@st.composite
def free_dgla_files(draw):
    """kind free-dgla definitions with random d lines over the basis labels:
    fractional coefficients, and d that may break d*d = 0, the degree, the
    weight or the relation ideal."""
    from mclie.freelie import FreeLieTruncation
    m = draw(st.integers(2, 4))
    names = draw(st.lists(st.sampled_from("abxyz"), min_size=1, max_size=3, unique=True))
    gens = [(name, draw(st.integers(-2, 1)), draw(st.integers(1, 2))) for name in names]
    free = FreeLieTruncation(gens, m)
    labels = st.sampled_from([lab for d in free.space.degrees()
                              for lab in free.space.labels(d)])
    lines = ["kind free-dgla", "weight %d" % m] + ["generator %s %d %d" % g for g in gens]
    for name, degree, _ in gens:
        # mostly of the degree d needs, so that d*d and the ideal are reached
        right = free.space.labels(degree - 1)
        pool = st.sampled_from(right) if right and draw(st.integers(0, 3)) else labels
        terms = draw(st.lists(pool, max_size=3, unique=True))
        if terms:
            lines.append("d %s = %s" % (name, " + ".join(
                "%s %s" % (draw(st.sampled_from(FREE_DGLA_COEFFS)), t) for t in terms)))
    if draw(st.integers(0, 3)) == 0:
        lines.append("relation %s" % draw(labels))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(free_dgla_files())
def test_generated_free_dgla_files_exit_cleanly(text):
    # check and homology accept and refuse the same files: homology reads
    # the weight-m dgla that check checks, whatever happens at m + 1
    import tempfile
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = "%s/free.def" % tmp
        with open(path, "w") as f:
            f.write(text)
        for command in ("homology", "check"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, path])
            assert rc in (0, 1, 2, 3)
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if rc:
                assert len(err.getvalue().splitlines()) == 1
            codes.append(rc)
    assert codes[0] == codes[1]


DEFINITION_LABELS = ["1", "a", "x", "y", "[x,y]"]
DEFINITION_DIRECTIVES = {"dgla": ["basis", "bracket", "d"],
                         "free-dgla": ["weight", "generator", "d", "relation"],
                         "cdga": ["basis", "unit", "mul", "d", "augment"]}


@st.composite
def definition_files(draw):
    """Definition texts of 1-6 directive lines after the kind, over a few
    labels, so that a label is often repeated, undeclared, a numeral or a
    bracket; degrees -2..2 and weights -1..3."""
    kind = draw(st.sampled_from(sorted(DEFINITION_DIRECTIVES)))
    label = st.sampled_from(DEFINITION_LABELS)
    degree, weight = st.integers(-2, 2), st.integers(-1, 3)
    coeff = st.sampled_from(["1", "-1", "2", "1/2"])

    def element():
        terms = draw(st.lists(st.tuples(coeff, label), min_size=1, max_size=2))
        return " + ".join("%s %s" % t for t in terms)
    make = {
        "weight": lambda: "weight %d" % draw(weight),
        "generator": lambda: "generator %s %d %d" % (draw(label), draw(degree),
                                                     draw(weight)),
        "basis": lambda: "basis %s %d" % (draw(label), draw(degree)),
        "bracket": lambda: "bracket %s %s = %s" % (draw(label), draw(label), element()),
        "mul": lambda: "mul %s %s = %s" % (draw(label), draw(label), element()),
        "d": lambda: "d %s = %s" % (draw(label), element()),
        "relation": lambda: "relation %s" % element(),
        "unit": lambda: "unit %s" % draw(label),
        "augment": lambda: "augment %s = %s" % (draw(label), draw(coeff)),
    }
    heads = st.sampled_from(DEFINITION_DIRECTIVES[kind])
    lines = [make[draw(heads)]() for _ in range(draw(st.integers(1, 6)))]
    return "\n".join(["kind " + kind] + lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(definition_files())
def test_generated_definition_files_exit_cleanly(text):
    # every input gets an exit code 0-3, and a failure one stderr line,
    # never a traceback
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = "%s/generated.def" % tmp
        with open(path, "w") as f:
            f.write(text)
        for command in ("check", "homology"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, path])
            assert rc in (0, 1, 2, 3)
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if rc:
                assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("weight,lines", [
    # d(d(x)) = [[x,y],y] has weight 5 and lies in the ideal of relation y;
    # the weight-5 rebuild is a dgla, so H_1 and H_2 are confirmed there
    (4, ["  H_1 = 2  [stable]", "  H_2 = 3  [stable]",
         "  H_3 = 1  [unstable]", "  H_4 = 0  [unstable]"]),
    (5, ["  H_1 = 2  [stable]", "  H_2 = 3  [stable]", "  H_3 = 2  [stable]",
         "  H_4 = 1  [unstable]", "  H_5 = 0  [unstable]"]),
])
def test_homology_when_d_squared_lies_in_the_ideal(tmp_path, weight, lines, capsys):
    d = tmp_path / "free.def"
    d.write_text("kind free-dgla\nweight %d\ngenerator a 1 2\ngenerator x 1 1\n"
                 "generator y -1 2\nd x = 1 [x,y] + -5/7 [a,y]\nrelation y\n" % weight)
    assert run_cli(["check", str(d)], capsys)[0] == 0
    rc, out, err = run_cli(["homology", str(d)], capsys)
    assert (rc, err) == (0, "")
    assert [l for l in out.splitlines() if l.startswith("  H_")] == lines


def test_homology_is_unstable_when_the_rebuild_is_no_dgla(tmp_path, capsys):
    # d(d(x)) = [[x,y],y] has weight 5 and no relation: the weight-4 file is
    # a dgla, its weight-5 rebuild is not, so every degree is unstable
    d = tmp_path / "free.def"
    text = "kind free-dgla\nweight %d\ngenerator x 1 1\ngenerator y -1 2\nd x = 1 [x,y]\n"
    d.write_text(text % 4)
    assert run_cli(["check", str(d)], capsys)[0] == 0
    rc, out, err = run_cli(["homology", str(d)], capsys)
    assert (rc, err) == (0, "")
    assert [l for l in out.splitlines() if l.startswith("  H_")] == [
        "  H_-2 = 1  [unstable]", "  H_-1 = 1  [unstable]", "  H_0 = 0  [unstable]",
        "  H_1 = 0  [unstable]", "  H_2 = 0  [unstable]"]
    d.write_text(text % 5)
    for command in ("check", "homology"):
        assert run_cli([command, str(d)], capsys) == (
            2, "", "InvalidDifferential: d(d(x)) = [[x,y],y] is nonzero\n")


@pytest.mark.parametrize("text,message", [
    ("kind cdga\nbasis 1 0\nbasis e 0\nunit x\n", "unknown basis label 'x' (line 4)"),
    ("kind cdga\nbasis 1 0\nbasis e 0\nunit 1\nmul e y = 1 e\n",
     "unknown basis label 'y' (line 5)"),
    ("kind cdga\nbasis 1 0\nbasis e 0\nunit 1\nmul y e = 1 e\n",
     "unknown basis label 'y' (line 5)"),
    ("kind dgla\nbasis a 0\nbasis b 0\nbracket a y = 1 b\n",
     "unknown basis label 'y' (line 4)"),
    ("kind cdga\nbasis 1 0\nunit 1\nd y = 1 1\n", "unknown basis label 'y' (line 4)"),
    ("kind dgla\nbasis a 0\nbasis b -1\nd y = 1 b\n", "unknown basis label 'y' (line 4)"),
    ("kind free-dgla\nweight 2\ngenerator x -1\nd y = -1/2 [x,x]\n",
     "unknown generator 'y' (line 4)"),
    ("kind cdga\nbasis 1 0\nunit 1\naugment 1 = 1\naugment y = 1\n",
     "unknown basis label 'y' (line 5)"),
    ("kind cdga\nbasis 1 0\nunit\n", "unit LABEL (line 3)"),
], ids=["unit", "mul-left", "mul-right", "bracket", "d-cdga", "d-dgla",
        "d-free-dgla", "augment", "unit-without-label"])
def test_labels_in_definition_files_are_checked(tmp_path, text, message, capsys):
    d = tmp_path / "labels.def"
    d.write_text(text)
    rc, out, err = run_cli(["check", str(d)], capsys)
    assert (rc, out, err) == (2, "", "parse error: %s\n" % message)


@pytest.mark.parametrize("text,message", [
    ("kind free-dgla\nweight x\n", "expected an integer, got 'x' (line 2)"),
    ("kind free-dgla\nweight\n", "weight WEIGHT (line 2)"),
    ("kind dgla\nbasis a x\n", "expected an integer, got 'x' (line 2)"),
    ("kind free-dgla\nweight 2\ngenerator a 1 x\n",
     "expected an integer, got 'x' (line 3)"),
], ids=["weight", "weight-without-value", "basis-degree", "generator-weight"])
def test_integers_in_definition_files_are_checked(tmp_path, text, message, capsys):
    d = tmp_path / "integers.def"
    d.write_text(text)
    rc, out, err = run_cli(["check", str(d)], capsys)
    assert (rc, out, err) == (2, "", "parse error: %s\n" % message)


@pytest.mark.parametrize("text,message", [
    # the relation mixes weights 2 and 3
    ("kind free-dgla\nweight 4\ngenerator a 0\ngenerator b 0\ngenerator c 0\n"
     "relation [a,b] - [[a,c],c]\n",
     "d(s([[a,c],c])) has the term s(a)*s(b), not of weight 3"),
    # every weight is 1, so [a,b] = c does not add weights
    ("kind dgla\nbasis a 0\nbasis b 0\nbasis c 0\nbracket a b = 1 c\n",
     "d(s(c)) has the term s(a)*s(b), not of weight 1"),
], ids=["free-dgla-relation", "dgla-table"])
def test_free_product_cohomology_refuses_non_weight_graded(tmp_path, text, message,
                                                           capsys):
    d = tmp_path / "mixed.def"
    d.write_text(text)
    rc, out, err = run_cli(["verify", "free-product-cohomology", str(d),
                            "abelian:1:0", "--weight", "4"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("InvalidDifferential: truncation by weight needs a "
                   "weight-graded dgla: %s\n" % message)


def test_free_product_cohomology_refuses_non_weight_graded_at_every_weight(tmp_path,
                                                                          capsys):
    # at weight 2 the CE complexes, truncated at weight 1, read no bracket,
    # so the factor's own brackets are checked against its weights
    d = tmp_path / "mixed.def"
    d.write_text("kind dgla\nbasis a 0\nbasis b 0\nbasis c 0\nbracket a b = 1 c\n")
    for m in range(2, 6):
        rc, out, err = run_cli(["verify", "free-product-cohomology", str(d),
                                "abelian:1:0", "--weight", str(m)], capsys)
        assert (rc, out) == (2, "")
        assert err == ("InvalidDifferential: truncation by weight needs a weight-graded "
                       "dgla: %s\n" % ("[a,b] has the term c, not of weight 2" if m == 2 else
                                       "d(s(c)) has the term s(a)*s(b), not of weight 1"))


def test_harrison_at_weight_1_keeps_working_reports(capsys):
    rc, out, _ = run_cli(["harrison", "q_eps", "--weight", "1"], capsys)
    assert rc == 0
    assert "dim_-1 = 1  [weight <= 1]" in out
    assert "generators: T(eps)" in out


# --- the exit-code property: every argv ends in 0, 1, 2 or 3, never in a
# traceback, and a nonzero exit explains itself in one line.  Small builtins
# of both kinds and counts from -1 to 3 keep each example to milliseconds.


DGLA_REFS = ["heisenberg", "sphere", "zero", "g_S:1", "g_S:2", "f_xa:1",
             "f_xa:3", "abelian:1:0", "abelian:2:-1"]
CDGA_REFS = ["q", "qxq", "qk:2", "q_eps", "q_deg2", "omega:1:1", "omega:1:2"]
# the arguments after the first definition: D another definition, N a count
# (the subcommand's own, else --weight), R a degree range and E an element
SHAPES = {
    "check": ["", "D"], "homology": ["", "R"], "ce": ["N", "NR"],
    "harrison": ["", "N"], "free-product": ["DN"], "disjoint-product": ["DN"],
    "mc-verify": ["E"], "mc-constraints": ["N"], "mc-moduli": ["", "N"],
    "verify components": ["", "N"], "verify theorem-f": ["", "D"],
    "verify free-product-cohomology": ["D", "DN"], "localize": ["E"],
    "split": [""], "minimal-model": ["", "N"],
}
COUNTS = {"ce": "--words", "mc-constraints": "--simplex", "mc-moduli": "--support",
          "verify components": "--support", "minimal-model": "--arity"}
RANGES = ["0..1", "-2..2", "2..0", "x", "1..x", "1", "..", ""]
ELEMENTS = ["x", "a", "e", "1", "0", "2 x", "x1 + x2", "-1/2 x", "t1", "dt1",
            "eps", "w", "1 + e", "b", "1e5000 x"]


@st.composite
def cli_argvs(draw):
    sub = draw(st.sampled_from(sorted(SHAPES)))
    ref = st.sampled_from(DGLA_REFS + CDGA_REFS)
    argv = sub.split() + [draw(ref)]
    for tok in draw(st.sampled_from(SHAPES[sub])):
        if tok == "D":
            argv.append(draw(ref))
        elif tok == "E":
            argv += ["--element" if sub == "mc-verify" else "--at",
                     draw(st.sampled_from(ELEMENTS))]
        elif tok == "R":
            argv += ["--range", draw(st.sampled_from(RANGES))]
        else:
            argv += [COUNTS.get(sub, "--weight"), str(draw(st.integers(-1, 3)))]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--weight", str(draw(st.integers(0, 3)))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_every_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc:
        lines = err.getvalue().splitlines()
        if rc == 2:  # argparse's usage lines may come first
            lines = [line for line in lines if not line.startswith(("usage:", " "))]
        if rc == 1 and not lines:  # a failed verdict, reported as such
            assert ": FAIL" in out.getvalue()
        else:
            assert len(lines) == 1


LONG_NUMERALS = st.tuples(st.sampled_from(["", "-", "+"]), st.sampled_from("123456789"),
                          st.integers(4000, 5000)).map(lambda t: t[0] + t[1] * t[2])
COEFFICIENT_TOKENS = st.one_of(
    LONG_NUMERALS, LONG_NUMERALS,
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(0, 99)).map(lambda pq: "%d/%d" % pq),
    st.tuples(st.integers(-99, 99), st.integers(0, 999)).map(lambda ab: "%d.%d" % ab),
    st.sampled_from([".5", "5.", "+3", "-0", "+-3", "1_000", "1__0", "-", "+", "/",
                     "1/", "/2", "1e5", "2E-3", "-.5e1", "1e2000000", "1_0e+2"]))
LABEL_TOKENS = st.sampled_from(["x", "x", "x", "[x,x]", "[x,[x,x]]", "[[x,x],x]", "[x",
                                "x]", "[x,x", "[]", "[,]", "[x,y]", "y", "1", "0"])


@st.composite
def element_texts(draw):
    parts = [draw(st.sampled_from(["", "", "-", "+", "- "]))]
    for i in range(draw(st.integers(1, 3))):
        if i:
            parts.append(draw(st.sampled_from([" + ", " - ", " +", " -", " "])))
        if draw(st.integers(0, 3)):
            parts.append(draw(COEFFICIENT_TOKENS) + " ")
        if draw(st.integers(0, 5)):
            parts.append(draw(LABEL_TOKENS))
    return "".join(parts)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(element_texts())
def test_generated_coefficients_parse_or_exit_cleanly(text):
    # parse_element parses or raises DefinitionError; mc-verify exits 0, 1
    # or 2, writes one stderr line unless a verdict failed, and never lets
    # an exception out, whatever the numeral's length
    from mclie.defs import DefinitionError, element_degrees, parse_element
    from mclie.dgla import sphere_dgla
    try:
        parse_element(text, element_degrees(sphere_dgla()))
    except DefinitionError:
        pass
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["mc-verify", "sphere", "--element", text])
    assert sys.get_int_max_str_digits() == limit
    assert rc in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    lines = err.getvalue().splitlines()
    if rc == 1 and not lines:
        assert out.getvalue().endswith("maurer-cartan: FAIL\n")
    elif rc:
        assert len(lines) == 1
    else:
        assert not lines
