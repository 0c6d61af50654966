"""Exit codes, report formats, and determinism of the command line."""

import json
import pathlib

import pytest

from defcert import cli, deform, fdmod, groups

DATA = pathlib.Path(__file__).parent / "data"


def run(argv, capsys):
    code = cli.run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_verify_one_case(capsys):
    code, out, _ = run(["families", "verify", "--family", "I", "--d", "2"],
                       capsys)
    assert code == 0
    assert "scenario family-I-d2: VERIFIED" in out
    assert out.count("PASS") == 5
    assert "Ext^1_Λ(T,T) ≅ k" in out
    assert "CONCLUSION" in out and "R(Λ,T) ≅ k[[t]]" in out


def test_families_verify_every_case(capsys):
    code, out, _ = run(["families", "verify"], capsys)
    assert code == 0
    for fam, d in deform.FAMILY_CASES:
        assert f"family-{fam}-d{d}: VERIFIED" in out


def test_group_verify_json(capsys):
    code, out, _ = run(["group", "verify", "--p", "3", "--format", "json"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["status"] == "VERIFIED"
    assert len(data["premises"]) == 7


def test_obstruction_counts_witnesses(capsys):
    code, out, _ = run(
        ["obstruction", "--p", "3", "--samples", "100", "--seed", "7",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    computed = data["premises"][0]["computed"]
    assert computed["witnesses"] == 103
    assert computed["random_samples"] == 100
    assert computed["seed"] == 7


def test_module_check_accepts_the_shipped_fixture(tmp_path, capsys):
    shipped = DATA / "quotient_module.qmod"
    code, out, _ = run(["module", "check", str(shipped)], capsys)
    assert code == 0
    assert "status: valid" in out
    assert "dimension vector: 0:2, 1:1, 2:1" in out
    # 2^64 + 1 in place of each entry 1 is the same module mod p, not an
    # int64 overflow escaping as "invalid request"
    head, body = shipped.read_text().split("matrix", 1)
    big = tmp_path / "big.qmod"
    big.write_text(head + "matrix" + body.replace(" 1", f" {2**64 + 1}"))
    for fmt in ("text", "json"):
        argv = ["module", "check", "--format", fmt]
        want = run(argv + [str(shipped)], capsys)
        code, out, err = run(argv + [str(big)], capsys)
        assert (code, out.replace(str(big), str(shipped)), err) == want


def test_module_check_json_counts_every_vertex(tmp_path, capsys):
    fixture = tmp_path / "simple.qmod"
    fixture.write_text("algebra: II 2\ndim: 1\nvertices: 1\n")
    code, out, _ = run(["module", "check", str(fixture), "--format", "json"],
                       capsys)
    assert code == 0
    assert json.loads(out)["dimension_vector"] == {"0": 0, "1": 1, "2": 0}


def test_module_check_names_the_violated_relation(capsys):
    code, _, err = run(["module", "check", str(DATA / "badfixture.qmod")],
                       capsys)
    assert code == 1
    assert "rel[4]" in err and "eta*delta*eta + beta*lambda" in err


def test_module_check_grammar_error_is_an_input_error(capsys):
    code, _, err = run(["module", "check", str(DATA / "broken_grammar.qmod")],
                       capsys)
    assert code == 2
    assert "parse error" in err


def test_module_check_missing_file(capsys):
    code, _, err = run(["module", "check", str(DATA / "nowhere.qmod")],
                       capsys)
    assert code == 2
    assert "cannot read" in err


def test_module_check_needs_an_algebra(tmp_path, capsys):
    fixture = tmp_path / "anon.qmod"
    fixture.write_text("dim: 1\nvertices: 0\n")
    code, _, err = run(["module", "check", str(fixture)], capsys)
    assert code == 2
    assert "does not name its algebra" in err
    code, out, _ = run(
        ["module", "check", str(fixture), "--family", "I", "--d", "2"],
        capsys,
    )
    assert code == 0
    assert "status: valid" in out


def test_ext_agrees_on_both_routes(capsys):
    code, out, _ = run(["ext", "--family", "I", "--d", "2",
                        "--format", "json"], capsys)
    assert code == 0
    computed = json.loads(out)["premises"][0]["computed"]
    assert computed["ext1_resolution"] == computed["ext1_extension_route"] == 1
    assert computed["ext2"] == 1
    assert computed["stable_hom"] == 1


def test_ext_reads_module_fixtures(capsys):
    code, out, _ = run(
        ["ext", "--family", "II", "--d", "2",
         "--source", str(DATA / "quotient_module.qmod"), "--format", "json"],
        capsys,
    )
    assert code == 0
    computed = json.loads(out)["premises"][0]["computed"]
    assert computed["source"].endswith("quotient_module.qmod")
    assert computed["ext1_resolution"] == computed["ext1_extension_route"]


@pytest.mark.parametrize("family,d", [("I", 2), ("III", 3)])
def test_lift_verify(family, d, capsys):
    code, out, _ = run(["lift", "verify", "--family", family, "--d", str(d)],
                       capsys)
    assert code == 0
    assert f"lift-{family}-d{d}: VERIFIED" in out


def test_report_all_is_byte_identical_for_equal_seeds(tmp_path, capsys):
    argv = ["report", "all", "--family", "I", "--d", "2", "--p", "3",
            "--format", "json", "--seed", "0"]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert cli.run_command(argv + ["--out", str(first)]) == 0
    assert cli.run_command(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_text())
    ids = [r["scenario"] for r in data["reports"]]
    assert ids == sorted(ids)
    assert ids == ["family-I-d2", "group-p3", "obstruction-p3"]


def test_out_flag_redirects_output(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = cli.run_command(
        ["families", "verify", "--family", "II", "--d", "2",
         "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "Ext^1_Λ(T,T) ≅ k" in target.read_text()


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "report.json"
    code, out, err = run(["obstruction", "--p", "3", "--out", str(target)],
                         capsys)
    assert code == 2
    assert out == ""
    assert "cannot read or write" in err


def test_a_broken_invariant_exits_three(monkeypatch, capsys):
    def broken(rep):
        raise RuntimeError("planted: coboundaries escaped the cocycle space")

    monkeypatch.setattr(groups, "h1_cocycles", broken)
    code, out, err = run(["group", "verify", "--p", "3"], capsys)
    assert (code, out) == (3, "")
    assert err == ("broken invariant: planted: coboundaries escaped the "
                   "cocycle space\n")


def test_a_broken_cover_exits_three(monkeypatch, capsys):
    top = fdmod.top_pick
    monkeypatch.setattr(fdmod, "top_pick", lambda M: top(M)[1:])
    code, out, err = run(["ext", "--family", "I", "--d", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == "broken invariant: cover surjection failed to be onto\n"


def test_a_failed_decomposition_witness_exits_three(monkeypatch, capsys):
    # the decomposition's isomorphism is built from the claimed summands
    # and then verified; a built map that fails is not a mathematical fact
    # and must not be filed as a FAIL
    monkeypatch.setattr(fdmod, "_verify_witness", lambda *a: False)
    code, out, err = run(["group", "verify", "--p", "5", "--samples", "0"],
                         capsys)
    assert (code, out) == (3, "")
    assert err == ("broken invariant: the isomorphism built from the "
                   "claimed summands failed its verification, which is not "
                   "definitive\n")


def test_unknown_flag_exits_two(capsys):
    code, _, err = run(["families", "verify", "--bogus"], capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_format_exits_two(capsys):
    code, _, err = run(["families", "verify", "--format", "yamlish"], capsys)
    assert code == 2
    assert "usage" in err


def test_no_arguments_exits_two(capsys):
    code, _, _ = run([], capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run(["--help"], capsys)
    assert code == 0


def test_non_prime_parameter_exits_two(capsys):
    code, _, err = run(["group", "verify", "--p", "4"], capsys)
    assert code == 2
    assert "odd prime" in err
    code, _, _ = run(["obstruction", "--p", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["group", "verify", "--p", "3", "--samples", "-5"],
    ["obstruction", "--p", "3", "--samples", "-5"],
    ["group", "verify", "--p", "3", "--n", "0"],
    ["group", "verify", "--p", "3", "--N", "1"],
    ["group", "verify", "--p", "3", "--N", "65"],
    ["group", "verify", "--p", "3", "--N", "100000", "--samples", "0"],
    ["lift", "verify", "--family", "I", "--d", "0"],
    ["ext", "--family", "II", "--d", "0"],
    ["group", "verify", "--p", "3", "--n", "20"],
    ["group", "verify", "--p", "5", "--n", "14"],
    ["group", "verify", "--p", "7", "--n", "11"],
    ["obstruction", "--p", "521", "--samples", "0"],
    ["obstruction", "--p", "1000003", "--samples", "0"],
    ["obstruction", "--p", "1000000000000000003"],
    ["obstruction", "--p", "509", "--samples", "0"],
    ["group", "verify", "--p", "11", "--samples", "0"],
    ["obstruction", "--p", "3", "--samples", "100000000"],
    ["obstruction", "--p", "31", "--samples", "57104"],
])
def test_out_of_range_scenario_parameters_exit_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "invalid request" in err


def test_largest_exact_level_at_p3_verifies(capsys):
    # (p - 1)(p^n - 1)^2 stays below 2^63 up to n = 19 at p = 3
    code, out, _ = run(
        ["group", "verify", "--p", "3", "--n", "19", "--samples", "5"], capsys
    )
    assert code == 0
    assert "VERIFIED" in out


@pytest.mark.parametrize("family,d", deform.FAMILY_CASES)
def test_lift_and_family_reports_carry_the_same_lift_premises(
        family, d, capsys):
    flags = ["--family", family, "--d", str(d), "--format", "json"]
    _, lift_out, _ = run(["lift", "verify"] + flags, capsys)
    _, family_out, _ = run(["families", "verify"] + flags, capsys)
    names = {"flat-lift", "first-order-class"}
    lift = {pr["name"]: pr for pr in json.loads(lift_out)["premises"]}
    family_lift = {
        pr["name"]: pr for pr in json.loads(family_out)["premises"]
        if pr["name"] in names
    }
    assert set(lift) == names
    assert lift == family_lift


def test_out_of_catalogue_family_exits_two(capsys):
    code, _, err = run(["families", "verify", "--family", "I", "--d", "9"],
                       capsys)
    assert code == 2
    assert "no built-in case" in err


def test_default_seed_is_zero():
    args = cli.build_parser().parse_args(["obstruction", "--p", "3"])
    assert args.seed == 0


def test_text_report_lists_every_anchor(capsys):
    report = deform.scenario_report(deform.Scenario("group", p=3))
    text = cli.emit_report(report, "text")
    for premise in report.premises:
        assert premise.anchor in text


@pytest.mark.parametrize("algebra", ["I 5", "I 9"])
def test_module_check_refuses_an_algebra_outside_the_catalogue(
        algebra, tmp_path, capsys):
    # (I, 5) completes but is no built-in case; (I, 9) would exhaust the
    # completion cap after seconds.  Both are refused before completing.
    fixture = tmp_path / "far.qmod"
    fixture.write_text(f"algebra: {algebra}\ndim: 1\nvertices: 0\n")
    family, d = algebra.split()
    code, out, err = run(["module", "check", str(fixture)], capsys)
    assert (code, out) == (2, "")
    assert f"no built-in case family {family} d={d}" in err
    code, _, err = run(["module", "check", str(DATA / "quotient_module.qmod"),
                        "--family", family, "--d", d], capsys)
    assert code == 2
    assert "no built-in case" in err


def test_module_check_bare_matrix_line_is_a_parse_error(tmp_path, capsys):
    fixture = tmp_path / "bare.qmod"
    fixture.write_text("algebra: II 2\ndim: 1\nvertices: 0\nmatrix\n  0\n")
    code, out, err = run(["module", "check", str(fixture)], capsys)
    assert (code, out) == (2, "")
    assert "fixture parse error: line 4: matrix names no generator" in err


@pytest.mark.parametrize("text, message", [
    # a second section would replace the first without a word
    ("algebra: II 2\ndim: 2\nvertices: 0 1\nmatrix beta:\n  0 0\n  1 0\n"
     "matrix beta:\n  0 0\n  0 0\n", "line 7: second matrix beta:"),
    ("algebra: II 2\ndim: 2\ndim: 1\nvertices: 0\n", "line 3: second dim:"),
    ("algebra: II 2\ndim: 1\nvertices: 0\nvertices: 1\n",
     "line 4: second vertices:"),
    ("algebra: II 2\ndim: 1\nvertices: 0\nalgebra: I 2\n",
     "line 4: second algebra:"),
    ("algebra: II 2\ndim: 1\nvertices: 7\n", "line 3: unknown vertex 7"),
], ids=["matrix", "dim", "vertices", "algebra", "unknown-vertex"])
def test_module_check_refuses_repeated_headers_and_unknown_vertices(
        text, message, tmp_path, capsys):
    fixture = tmp_path / "repeated.qmod"
    fixture.write_text(text)
    code, out, err = run(["module", "check", str(fixture)], capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["ext", "--family", "I", "--d", "2", "--source"],
    ["ext", "--family", "I", "--d", "2", "--target"],
    ["module", "check", "--family", "I", "--d", "2"],
    ["module", "check", "--family", "I"],
])
def test_a_fixture_naming_another_case_exits_two(argv, capsys):
    # the fixture says algebra: II 2
    code, out, err = run(argv + [str(DATA / "quotient_module.qmod")], capsys)
    assert (code, out) == (2, "")
    assert "fixture names algebra II 2, not family I d=2" in err


def test_a_fixture_agreeing_with_the_flags_is_read(tmp_path, capsys):
    fixture = DATA / "quotient_module.qmod"
    code, out, _ = run(["module", "check", str(fixture), "--family", "II",
                        "--d", "2"], capsys)
    assert code == 0 and "status: valid" in out
    anon = tmp_path / "anon.qmod"
    anon.write_text(fixture.read_text().replace("algebra: II 2\n", ""))
    code, out, _ = run(["ext", "--family", "II", "--d", "2", "--source",
                        str(anon), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["premises"][0]["computed"]["source"] == str(anon)


def test_families_verify_takes_no_sample_count(capsys):
    code, out, _ = run(["families", "verify", "--samples", "5"], capsys)
    assert (code, out) == (2, "")


def test_back_to_back_commands_match_separate_ones(capsys):
    # run_command reuses one parser; a sequence of different subcommands
    # and flags, a parse failure among them, must give each command's
    # exit code and bytes as if it ran alone on a freshly built parser
    argvs = [
        ["obstruction", "--p", "3", "--samples", "20", "--seed", "4",
         "--format", "json"],
        ["module", "check", str(DATA / "quotient_module.qmod")],
        ["families", "verify", "--bogus"],
        ["obstruction", "--p", "5", "--samples", "10", "--format", "text"],
        ["ext", "--family", "II", "--d", "2", "--format", "json"],
        ["obstruction", "--p", "9"],
    ]
    together = [run(argv, capsys) for argv in argvs]
    alone = []
    for argv in argvs:
        cli._parser.cache_clear()
        alone.append(run(argv, capsys))
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 0, 2]
    assert together == alone
