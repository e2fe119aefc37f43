import contextlib
import hashlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclie.cli import main
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


def test_split_non_split_exit_code(capsys):
    rc, out, err = run_cli(["split", "--builtin", "q_eps"], capsys)
    assert rc == 1
    assert "NonSplitAlgebra" in err


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
    inner = mclie.linalg.homology

    def counted(space, d):
        calls.append(space)
        return inner(space, d)

    # Cdga.homology is linalg._DgAlgebra.homology, which looks the name up there
    monkeypatch.setattr(mclie.linalg, "homology", counted)
    rc, out, err = run_cli(["localize", "--builtin", "qk:3", "--at", "2 1 - e1"],
                           capsys)
    assert rc == 0
    # one on A[u^-1], one on A
    assert len(calls) == 2
    assert "H^0 = 3  [exact]" in out


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
            "eps", "w", "1 + e", "b"]


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
