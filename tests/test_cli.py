"""End-to-end command line behavior, run in process."""

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import invar.cli
from invar.chern import chern_invariant
from invar.cli import main
from invar.calculus import divergence
from invar.invariants import Invariant, monomial_invariant
from invar.monomials import PHI, PSI, ContractionMonomial
from invar.rationals import GR_ONE, GaussRat
from invar.rings import SymbolicRing
from invar.solver import Decomposition, decompose

SQ = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))


def write_inv(tmp_path, inv, name="inv.json"):
    path = tmp_path / name
    path.write_text(json.dumps(inv.to_json_dict()))
    return str(path)


def report_lines(out):
    rows = [json.loads(line) for line in out.strip().splitlines()]
    for row in rows:
        assert set(row) == {"check", "status", "lhs", "rhs", "dim", "seed"}
    return rows


def test_bergman_fubini_study_chain(capsys):
    assert main(["bergman", "--dim", "1", "--fubini-study", "--order", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a_0 = 1", "a_1 = 1", "a_2 = 0", "a_3 = 0"]
    assert main(["bergman", "--dim", "2", "--fubini-study", "--order", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a_0 = 1", "a_1 = 3", "a_2 = 2", "a_3 = 0"]


def test_bergman_json_format(capsys):
    assert (
        main(
            [
                "bergman",
                "--dim",
                "1",
                "--fubini-study",
                "--order",
                "1",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 1 and payload["order"] == 1
    assert payload["coefficients"][0] == {"re": "1", "im": "0"}
    assert payload["coefficients"][1] == {"re": "1", "im": "0"}


def test_bergman_symbolic_json_lists_monomials(capsys):
    assert (
        main(
            [
                "bergman",
                "--dim",
                "1",
                "--symbolic",
                "--order",
                "1",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    a1 = payload["coefficients"][1]
    assert isinstance(a1, list) and a1
    assert all("monomial" in t and "re" in t and "im" in t for t in a1)


def write_json(tmp_path, payload, name):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_bergman_potential_file(tmp_path, capsys):
    # H = 3 z^2 zbar^2 has scalar curvature -12 at the center
    jet = {"alpha": [2], "beta": [2], "re": "3"}
    path = write_json(tmp_path, {"n": 1, "jets": [jet]}, "pot.json")
    assert main(["bergman", "--dim", "1", "--potential", path, "--order", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["a_0 = 1", "a_1 = -6"]


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 1, "entries": [{"alpha": [2], "beta": [2], "re": "3"}]},
        {"n": 1, "jets": [{"alpha": [1], "beta": [2], "re": "3"}]},
    ],
    ids=["wrong-keys", "not-normal-form"],
)
def test_bad_potential_file_is_input_error(tmp_path, capsys, payload):
    path = write_json(tmp_path, payload, "pot.json")
    assert main(["bergman", "--dim", "1", "--potential", path, "--order", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad potential") and len(err.splitlines()) == 1


def test_bergman_refuses_a_diagonal_jet_that_is_not_real(tmp_path, capsys):
    # its a_1 read -2+2*i, a value no real potential has
    jet = {"alpha": [2], "beta": [2], "re": "1", "im": "1"}
    path = write_json(tmp_path, {"n": 1, "jets": [jet]}, "pot.json")
    assert main(["bergman", "--dim", "1", "--potential", path, "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad potential in {path}: not real: jet alpha=[2], beta=[2] is 1+1i, "
        "so alpha=[2], beta=[2] must be 1-1i\n"
    )


def test_bergman_refuses_a_jet_whose_transpose_is_missing(tmp_path, capsys):
    # alone, [2,0]|[0,2] read zeros at every order
    jets = [{"alpha": [2, 0], "beta": [0, 2], "re": "1"}]
    path = write_json(tmp_path, {"n": 2, "jets": jets}, "pot.json")
    assert main(["bergman", "--dim", "2", "--potential", path, "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad potential in {path}: not real: jet alpha=[2, 0], beta=[0, 2] is 1, "
        "so alpha=[0, 2], beta=[2, 0] must be 1\n"
    )
    jets.append({"alpha": [0, 2], "beta": [2, 0], "re": "1"})
    path = write_json(tmp_path, {"n": 2, "jets": jets}, "real.json")
    assert main(["bergman", "--dim", "2", "--potential", path, "--order", "2"]) == 0


def _one_monomial(**fields):
    """An invariant document of one monomial, its fields overridden."""
    return {"terms": [{"monomial": {"kind": "phi", "edges": [[2]], **fields}, "coeff": "1"}]}


def _one_jet(**fields):
    """A potential document of one jet, its fields overridden."""
    return {"n": 1, "jets": [{"alpha": [2], "beta": [2], "re": "1", **fields}]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (
            "bergman",
            {"n": 1, "jets": [{"alpha": [2], "beta": [2], "re": "1/0"}]},
            "bad potential in {}: zero denominator in '1/0'",
        ),
        ("bergman", {"n": 1}, "bad potential in {}: missing field 'jets'"),
        ("canon", {"valence": [0, 0]}, "bad invariant in {}: missing field 'terms'"),
        ("decompose", {"terms": [{}]}, "bad invariant in {}: missing field 'monomial'"),
        ("bergman", [1, 2], "bad potential in {}: document must be an object, got [1, 2]"),
        ("bergman", {"n": 1, "jets": {}}, "bad potential in {}: jets must be a list, got {{}}"),
        (
            "bergman",
            {"n": 1, "jets": ["x"]},
            "bad potential in {}: each jet must be an object, got 'x'",
        ),
        ("canon", ["terms"], "bad invariant in {}: document must be an object, got ['terms']"),
        ("canon", {"terms": {}}, "bad invariant in {}: terms must be a list, got {{}}"),
        ("canon", {"terms": ["x"]}, "bad invariant in {}: each term must be an object, got 'x'"),
        (
            "canon",
            {"terms": [{"monomial": 1, "coeff": "1"}]},
            "bad invariant in {}: monomial must be an object, got 1",
        ),
        (
            "canon",
            {"valence": 5, "terms": []},
            "bad invariant in {}: valence must be a two-element list, got 5",
        ),
        (
            "canon",
            {"valence": [0, 0, 0], "terms": []},
            "bad invariant in {}: valence must be a two-element list, got [0, 0, 0]",
        ),
        ("canon", _one_monomial(edges=5), "bad invariant in {}: edges must be a list, got 5"),
        (
            "canon",
            _one_monomial(edges=[5]),
            "bad invariant in {}: each edge row must be a list, got 5",
        ),
        ("canon", _one_monomial(edges="x"), "bad invariant in {}: edges must be a list, got 'x'"),
        ("canon", _one_monomial(free_hol=3), "bad invariant in {}: free_hol must be a list, got 3"),
        (
            "canon",
            _one_monomial(free_hol={"a": 1}),
            "bad invariant in {}: free_hol must be a list, got {{'a': 1}}",
        ),
        (
            "canon",
            _one_monomial(free_hol=None),
            "bad invariant in {}: free_hol must be a list, got None",
        ),
        (
            "canon",
            _one_monomial(free_anti="ab"),
            "bad invariant in {}: free_anti must be a list, got 'ab'",
        ),
        ("bergman", _one_jet(alpha=2), "bad potential in {}: alpha must be a list, got 2"),
        (
            "bergman",
            _one_jet(alpha={"a": 2}),
            "bad potential in {}: alpha must be a list, got {{'a': 2}}",
        ),
        ("bergman", _one_jet(beta="2"), "bad potential in {}: beta must be a list, got '2'"),
        (
            "bergman",
            _one_jet(alpha=[[2]]),
            "bad potential in {}: alpha must be an integer, got [2]",
        ),
    ],
    ids=[
        "bad-value",
        "no-jets",
        "no-terms",
        "no-monomial",
        "potential-not-object",
        "jets-not-list",
        "jet-not-object",
        "invariant-not-object",
        "terms-not-list",
        "term-not-object",
        "monomial-not-object",
        "valence-not-list",
        "valence-three-long",
        "edges-not-list",
        "edge-row-not-list",
        "edges-string",
        "free-hol-not-list",
        "free-hol-object",
        "free-hol-null",
        "free-anti-string",
        "alpha-not-list",
        "alpha-object",
        "beta-string",
        "alpha-nested",
    ],
)
def test_bad_file_message_is_bare(tmp_path, capsys, command, payload, message):
    path = write_json(tmp_path, payload, "in.json")
    argv = [command, path]
    if command == "bergman":
        argv = ["bergman", "--dim", "1", "--potential", path, "--order", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path) + "\n"


def test_decompose_restriction_failures_are_one_line(tmp_path, capsys):
    inv = divergence(monomial_invariant(ContractionMonomial(PHI, [[2]], [1], [0])))
    path = write_inv(tmp_path, inv)
    for caps, code, prefix in (
        ([[3, 3]], 1, "no witness:"),
        ([[3, 3], [3, 3]], 2, "error:"),
    ):
        restrict = write_json(tmp_path, caps, "caps.json")
        assert main(["decompose", path, "--restrict", restrict]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix) and len(captured.err.splitlines()) == 1



def test_decompose_refuses_a_wrong_length_list_before_the_integral_test(tmp_path, capsys):
    # SQ does not integrate to zero, but the malformed list is named first
    path = write_inv(tmp_path, SQ)
    restrict = write_json(tmp_path, [[2, 2]], "caps.json")
    assert main(["decompose", path, "--restrict", restrict]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: restriction list length must equal the factor count\n"


def assert_one_line_refusal(capsys, argv, field):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "field, value",
    [("alpha", [2.9]), ("beta", [True, 1]), ("n", 1.0)],
    ids=["fraction", "bool", "float-dim"],
)
def test_potential_file_refuses_non_integer_fields(tmp_path, capsys, field, value):
    jet = {"alpha": [2], "beta": [2], "re": "3"}
    payload = {"n": 1, "jets": [jet]}
    (payload if field == "n" else jet)[field] = value
    path = write_json(tmp_path, payload, "pot.json")
    argv = ["bergman", "--dim", "1", "--potential", path, "--order", "1"]
    assert_one_line_refusal(capsys, argv, field)


@pytest.mark.parametrize(
    "field, value",
    [
        ("edges", [[2.5]]),
        ("edges", [[True]]),
        ("free_hol", [0.0]),
        ("sigma", 1.0),
        ("valence", [0.0, 0]),
    ],
    ids=["fraction", "bool", "free-slots", "sigma", "valence"],
)
def test_invariant_file_refuses_non_integer_fields(tmp_path, capsys, field, value):
    payload = monomial_invariant(ContractionMonomial(PHI, ((2,),))).to_json_dict()
    target = payload if field == "valence" else payload["terms"][0]["monomial"]
    target[field] = value
    path = write_json(tmp_path, payload, "inv.json")
    assert_one_line_refusal(capsys, ["canon", path], field)


def _coefficient_argv(tmp_path, command, field, value):
    if command == "canon":
        payload = SQ.to_json_dict()
        payload["terms"][0][field] = value
        return ["canon", write_json(tmp_path, payload, "inv.json")]
    jet = {"alpha": [2], "beta": [2], "re": "3", field: value}
    path = write_json(tmp_path, {"n": 1, "jets": [jet]}, "pot.json")
    return ["bergman", "--dim", "1", "--potential", path, "--order", "1"]


@pytest.mark.parametrize(
    "command, field",
    [("canon", "coeff"), ("bergman", "re"), ("bergman", "im")],
)
def test_files_refuse_float_coefficients(tmp_path, capsys, command, field):
    argv = _coefficient_argv(tmp_path, command, field, 0.1)
    # a binary fraction such as 3602879701896397/36028797018963968 is not read
    assert_one_line_refusal(capsys, argv, "not an exact rational: 0.1")


@pytest.mark.parametrize("value", ["1/0", "1e5", "0.5", " 1/2 "])
@pytest.mark.parametrize(
    "command, field",
    [("canon", "coeff"), ("bergman", "re"), ("bergman", "im")],
)
def test_files_refuse_coefficient_strings_that_are_not_p_over_q(
    tmp_path, capsys, command, field, value
):
    argv = _coefficient_argv(tmp_path, command, field, value)
    assert_one_line_refusal(capsys, argv, value)


@pytest.mark.parametrize("value", ["-2/4", "6", 6])
@pytest.mark.parametrize("command", ["canon", "bergman"])
def test_files_read_p_over_q_strings_and_integers(tmp_path, capsys, command, value):
    field = "coeff" if command == "canon" else "re"
    assert main(_coefficient_argv(tmp_path, command, field, value)) == 0
    out = capsys.readouterr().out
    if command == "canon":
        want = "-1/2" if value == "-2/4" else "6/1"
        assert json.loads(out)["terms"][0]["coeff"] == want
    else:
        # H = c z^2 zbar^2 has a_1 = S/2 = -2c
        want = "1" if value == "-2/4" else "-12"
        assert out.splitlines() == ["a_0 = 1", f"a_1 = {want}"]


@contextmanager
def any_digits():
    """Python's int/str digit limit lifted, for reference values past it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_bergman_prints_answers_of_any_size(tmp_path, capsys):
    # H = c z^2 zbar^2 with a 1500-digit c: a_1 = -2c, and a_3 is past 4300 digits
    c = int("7" * 1500)
    path = write_json(tmp_path, _one_jet(re=str(c)), "big.json")
    argv = ["bergman", "--dim", "1", "--order", "3", "--potential", path]
    limit = sys.get_int_max_str_digits()
    assert main(argv) == 0
    text = capsys.readouterr().out.splitlines()
    assert main(argv + ["--format", "json"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coefficients"]
    assert sys.get_int_max_str_digits() == limit
    assert text == [f"a_{j} = {x['re']}" for j, x in enumerate(coeffs)]
    assert [x["im"] for x in coeffs] == ["0"] * 4
    assert coeffs[1]["re"] == str(-2 * c) and len(coeffs[3]["re"]) > 4300


def test_oracle_prints_values_of_any_size(tmp_path, capsys):
    mono = ContractionMonomial(PHI, ((0, 2), (2, 0)))
    big = int("7" * 4299)
    values = []
    for coeff, name in ((1, "one.json"), (big, "big.json")):
        path = write_inv(tmp_path, monomial_invariant(mono, coeff), name)
        assert main(["oracle", path, "--dim", "2", "--trials", "2"]) == 0
        values.append([r["lhs"] for r in report_lines(capsys.readouterr().out)[:2]])
    with any_digits():
        # the integral is linear in the coefficient
        assert values[1] == [str(big * Fraction(v)) for v in values[0]]


@pytest.mark.parametrize("quoted", [True, False], ids=["string", "json-number"])
@pytest.mark.parametrize("command, field", [("canon", "coeff"), ("bergman", "re")])
def test_input_numbers_past_the_digit_limit_are_one_line(
    tmp_path, capsys, command, field, quoted
):
    # answers print in full, but a number read from a file stays bounded
    argv = _coefficient_argv(tmp_path, command, field, "BIG")
    path = Path(argv[1] if command == "canon" else argv[4])
    digits = "7" * 4301
    path.write_text(path.read_text().replace('"BIG"', f'"{digits}"' if quoted else digits))
    assert_one_line_refusal(capsys, argv, "Exceeds the limit (4300 digits)")


def test_potential_file_refuses_repeated_jets(tmp_path, capsys):
    jets = [{"alpha": [2], "beta": [2], "re": re} for re in ("3", "5")]
    path = write_json(tmp_path, {"n": 1, "jets": jets}, "pot.json")
    argv = ["bergman", "--dim", "1", "--potential", path, "--order", "1"]
    assert_one_line_refusal(capsys, argv, "repeated jet alpha=[2], beta=[2]")


def test_invariant_file_refuses_negative_valence(tmp_path, capsys):
    path = write_json(tmp_path, {"valence": [-1, 0], "terms": []}, "inv.json")
    assert_one_line_refusal(capsys, ["canon", path], "valence")


@pytest.mark.parametrize(
    "command",
    [
        "oracle --dim 0",
        "oracle --dim 1 --trials -3",
        "oracle --dim 1 --mode-bound 0",
        "verify chern-integrals --mode-bound 0",
        "bergman --symbolic --order 1 --dim 0",
        "bergman --symbolic --dim 1 --order -1",
        "verify a1 --dim 0",
        "verify linear --order 0",
        "verify a3 --trials 0",
    ],
)
def test_numeric_flags_refuse_values_below_their_minimum(tmp_path, capsys, command):
    argv = command.split()
    flag = argv[-2]
    if argv[0] == "oracle":
        # argparse refuses the flag before the file is read, so the oracle
        # never starts drawing
        argv.insert(1, str(tmp_path / "never-read.json"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("caps", [[[2.9, 2]], [[2, True]]], ids=["fraction", "bool"])
def test_restriction_file_refuses_non_integer_caps(tmp_path, capsys, caps):
    path = write_inv(tmp_path, chern_invariant((1,)))
    restrict = write_json(tmp_path, caps, "caps.json")
    argv = ["decompose", path, "--restrict", restrict]
    assert_one_line_refusal(capsys, argv, "restriction")


def test_verify_a1_exact(capsys):
    assert main(["verify", "a1", "--dim", "2"]) == 0
    captured = capsys.readouterr()
    assert "a1 == S/2: exact [1 checks: ok]" in captured.err
    rows = report_lines(captured.out)
    assert len(rows) == 1
    assert rows[0]["check"] == "a1" and rows[0]["status"] == "ok"
    assert rows[0]["dim"] == 2


def test_verify_roundtrip_suite(capsys):
    assert main(["verify", "roundtrip", "--trials", "3", "--seed", "4"]) == 0
    captured = capsys.readouterr()
    rows = report_lines(captured.out)
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)
    assert "decompose/verify round-trip [3 checks: ok]" in captured.err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("a1 --dim 1 --order 9", "--order"),
        ("a2 --dim 1 --trials 2", "--trials"),
        ("a3 --dim 1 --mode-bound 3", "--mode-bound"),
        ("linear --dim 1 --seed 4", "--seed"),
        ("roundtrip --trials 1 --dim 2", "--dim"),
    ],
    ids=lambda v: v.split()[0],
)
def test_verify_refuses_flags_the_suite_does_not_read(capsys, command, flag):
    argv = ["verify", *command.split()]
    assert_one_line_refusal(capsys, argv, f"does not read {flag}")


def test_verify_chern_integrals_reads_every_flag(capsys):
    argv = "verify chern-integrals --dim 1 --order 1 --trials 1 --mode-bound 1 --seed 3"
    assert main(argv.split()) == 0
    rows = report_lines(capsys.readouterr().out)
    assert [(r["dim"], r["seed"], r["status"]) for r in rows] == [(1, 3, "ok")]


def test_decompose_chern_combination(tmp_path, capsys):
    path = write_inv(tmp_path, chern_invariant((2,)))
    assert main(["decompose", path]) == 0
    captured = capsys.readouterr()
    assert "decomposed: witness verified exactly" in captured.err
    dec = Decomposition.from_json_dict(json.loads(captured.out))
    assert dec.chern == {(2,): 1}
    assert not dec.t_hol and not dec.t_anti


def test_decompose_rejects_non_coexact(tmp_path, capsys):
    path = write_inv(tmp_path, SQ)
    assert main(["decompose", path]) == 1
    err = capsys.readouterr().err
    assert "not co-exact" in err
    residue_line = [l for l in err.splitlines() if l.startswith("{")]
    assert residue_line
    residue = json.loads(residue_line[0])
    assert residue["terms"][0]["monomial"]["kind"] == PSI
    assert residue["terms"][0]["monomial"]["edges"] == [[4]]


# Three fully traced factors, less half of one traced factor times two
# factors contracted with each other: degree 3, so the residue has two
# factors and their relabeling is not trivial, as it is for SQ.  The
# expected text is what the polarize-based residue printed, byte for byte.
NOT_COEXACT_DEGREE_THREE = Invariant(
    PHI,
    (0, 0),
    [
        (ContractionMonomial(PHI, ((2, 0, 0), (0, 2, 0), (0, 0, 2))), 1),
        (ContractionMonomial(PHI, ((2, 0, 0), (0, 1, 1), (0, 1, 1))), Fraction(-1, 2)),
    ],
)
DEGREE_THREE_RESIDUE = (
    '{"terms": [{"coeff": "-1/3", "monomial": {"edges": [[1, 1], [1, 3]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/2", "monomial": {"edges": [[1, 1], [2, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/6", "monomial": {"edges": [[1, 1], [3, 1]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/2", "monomial": {"edges": [[1, 2], [1, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/3", "monomial": {"edges": [[1, 2], [2, 1]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/6", "monomial": {"edges": [[1, 3], [1, 1]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "5/6", "monomial": {"edges": [[2, 0], [0, 4]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "3/2", "monomial": {"edges": [[2, 0], [1, 3]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "2/3", "monomial": {"edges": [[2, 0], [2, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "3/2", "monomial": {"edges": [[2, 1], [0, 3]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "2/3", "monomial": {"edges": [[2, 1], [1, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/2", "monomial": {"edges": [[2, 1], [2, 1]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "2/3", "monomial": {"edges": [[2, 2], [0, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/2", "monomial": {"edges": [[2, 2], [1, 1]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "5/3", "monomial": {"edges": [[3, 0], [0, 3]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "3/2", "monomial": {"edges": [[3, 0], [1, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "3/2", "monomial": {"edges": [[3, 1], [0, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "-1/3", "monomial": {"edges": [[3, 1], [1, 1]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}, '
    '{"coeff": "5/6", "monomial": {"edges": [[4, 0], [0, 2]], "free_anti": [0, 0], "free_hol": [0, 0], "kind": "psi", "sigma": 2}}], "valence": [0, 0]}'
)


def test_decompose_prints_the_degree_three_residue_unchanged(tmp_path, capsys):
    path = write_inv(tmp_path, NOT_COEXACT_DEGREE_THREE)
    assert main(["decompose", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "not co-exact: block of weight 6, degree 3 does not integrate to zero\n"
        "nonzero first-slot residue:\n" + DEGREE_THREE_RESIDUE + "\n"
    )


def test_chern_then_decompose(tmp_path, capsys):
    out = tmp_path / "chern.json"
    assert main(["chern", "--partition", "2,1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(out)]) == 0
    dec = Decomposition.from_json_dict(json.loads(capsys.readouterr().out))
    assert dec.chern == {(2, 1): 1}


def test_canon_is_stable(tmp_path, capsys):
    mono = ContractionMonomial(PHI, ((2, 0), (1, 1)))
    raw = {
        "valence": [0, 0],
        "terms": [
            {"monomial": mono.to_json_dict(), "coeff": "1"},
            {
                "monomial": mono.apply_permutation((1, 0)).to_json_dict(),
                "coeff": "1",
            },
        ],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(raw))
    assert main(["canon", str(path)]) == 0
    first = capsys.readouterr().out
    parsed = json.loads(first)
    assert len(parsed["terms"]) == 1
    assert parsed["terms"][0]["coeff"] == "2/1"
    # canonical output is a fixed point, byte for byte
    path.write_text(first)
    assert main(["canon", str(path)]) == 0
    assert capsys.readouterr().out == first


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_inv(tmp_path, chern_invariant((1,)))
    target = tmp_path / "canon.json"
    assert main(["canon", path, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == chern_invariant((1,)).to_json_dict()


def test_oracle_formal_zero(tmp_path, capsys):
    path = write_inv(tmp_path, chern_invariant((2,)))
    assert main(["oracle", path, "--dim", "2", "--trials", "3"]) == 0
    captured = capsys.readouterr()
    rows = report_lines(captured.out)
    assert len(rows) == 3
    assert all(r["status"] == "ok" and r["lhs"] == "0" for r in rows)
    assert "formally zero; 3 trials evaluated [3 checks: ok]" in captured.err


def test_oracle_nonzero_witness(tmp_path, capsys):
    path = write_inv(tmp_path, SQ)
    assert main(["oracle", path, "--dim", "1", "--trials", "4"]) == 0
    captured = capsys.readouterr()
    rows = report_lines(captured.out)
    trial_rows = [r for r in rows if r["check"] == "oracle-trial"]
    witness_rows = [r for r in rows if r["check"] == "oracle-witness"]
    assert len(trial_rows) == 4 and len(witness_rows) == 1
    assert all(r["rhs"] == "generically nonzero" for r in trial_rows)
    assert witness_rows[0]["status"] == "ok"
    assert "formally nonzero" in captured.err


def test_oracle_multilinear_input(tmp_path, capsys):
    pol = chern_invariant((2,)).polarize()
    path = write_inv(tmp_path, pol)
    assert main(["oracle", path, "--dim", "2", "--trials", "2"]) == 0
    rows = report_lines(capsys.readouterr().out)
    assert all(r["status"] == "ok" for r in rows)


def test_oracle_mixed_degree_input(tmp_path, capsys):
    # each degree block is tested on its own, as decompose does
    mixed = chern_invariant((1,)) + chern_invariant((2,))
    path = write_inv(tmp_path, mixed)
    assert main(["oracle", path, "--dim", "2", "--trials", "2"]) == 0
    captured = capsys.readouterr()
    assert all(r["status"] == "ok" and r["lhs"] == "0" for r in report_lines(captured.out))
    assert "formally zero; 2 trials evaluated" in captured.err
    path = write_inv(tmp_path, mixed + SQ)
    assert main(["oracle", path, "--dim", "1", "--trials", "2"]) == 0
    assert "formally nonzero" in capsys.readouterr().err
    # a psi file draws one function per factor, so its degree must be one
    psi = Invariant(PSI, (0, 0), [(ContractionMonomial(PSI, m.edges), c) for m, c in mixed.terms.items()])
    argv = ["oracle", write_inv(tmp_path, psi), "--dim", "2"]
    assert_one_line_refusal(capsys, argv, "one degree")


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["canon", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"[" * 200_000, b"\xff\xfe"], ids=["deep-nesting", "not-utf-8"]
)
def test_unreadable_input_is_one_line(tmp_path, capsys, content):
    path = tmp_path / "inv.json"
    path.write_bytes(content)
    assert_one_line_refusal(capsys, ["canon", str(path)], f"error: cannot read {path}: ")


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_one_line(tmp_path, capsys, target):
    path = write_inv(tmp_path, chern_invariant((1,)))
    out = tmp_path / "absent" / "x.json" if target == "missing-directory" else tmp_path
    argv = ["canon", path, "--out", str(out)]
    assert_one_line_refusal(capsys, argv, f"error: cannot write {out}: ")


FS_TEXT_ARGV = ["bergman", "--fubini-study", "--dim", "1", "--order", "3"]


def test_bergman_text_out_writes_what_stdout_would_show(tmp_path, capsys):
    target = tmp_path / "a.txt"
    assert main(FS_TEXT_ARGV + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == b"a_0 = 1\na_1 = 1\na_2 = 0\na_3 = 0\n"
    assert main(FS_TEXT_ARGV) == 0
    assert capsys.readouterr().out.encode() == target.read_bytes()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_bergman_text_unwritable_out_is_one_line(tmp_path, capsys, target):
    out = tmp_path / "absent" / "a.txt" if target == "missing-directory" else tmp_path
    argv = FS_TEXT_ARGV + ["--format", "text", "--out", str(out)]
    assert_one_line_refusal(capsys, argv, f"error: cannot write {out}: ")


def test_a_draw_that_does_not_close_is_one_line(tmp_path, capsys):
    # at n = 30 random_phi's mode triangle almost never closes
    refusal = "error: no mode triangle closed for n=30, mode bound 2"
    argv = ["oracle", write_inv(tmp_path, chern_invariant((1,))), "--dim", "30"]
    assert_one_line_refusal(capsys, argv, refusal)
    argv = ["verify", "chern-integrals", "--dim", "30", "--order", "1", "--trials", "1"]
    assert_one_line_refusal(capsys, argv, refusal)


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["decompose", str(path)]) == 2
    path.write_text(json.dumps({"valence": [0, 0]}))
    assert main(["canon", str(path)]) == 2
    capsys.readouterr()


def test_bad_partition_is_input_error(capsys):
    assert main(["chern", "--partition", "2,0"]) == 2
    assert main(["chern", "--partition", "x"]) == 2
    capsys.readouterr()


def _cycle_document(sigma):
    """One phi-monomial with edges i -> i + 1 and i -> i + 3 (mod sigma):
    every factor has signature (2, 2), so canonical() would try sigma!
    labelings."""
    edges = [
        [int(j == (i + 1) % sigma) + int(j == (i + 3) % sigma) for j in range(sigma)]
        for i in range(sigma)
    ]
    monomial = {"kind": "phi", "edges": edges}
    return {"valence": [0, 0], "terms": [{"monomial": monomial, "coeff": "1"}]}


def test_canon_refuses_a_monomial_past_the_labeling_limit_at_once(tmp_path, capsys):
    # 10 factors took 17 s; 12 would take about half an hour
    path = write_json(tmp_path, _cycle_document(12), "cycle.json")

    def expire(signum, frame):
        raise TimeoutError("invar canon is still trying 12! labelings")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        assert main(["canon", path]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad invariant in {path}: canonical form needs 479001600 labelings, "
        "over the limit 362880\n"
    )
    # 9! labelings are within the limit
    assert main(["canon", write_json(tmp_path, _cycle_document(9), "nine.json")]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert len(terms) == 1 and terms[0]["monomial"]["sigma"] == 9


def test_chern_refuses_a_degree_above_six_at_once(capsys):
    # chern_invariant's cost grows as sigma!^2: (7,) alone takes over a minute

    def expire(signum, frame):
        raise TimeoutError("invar chern is still building a degree-7 invariant")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        for partition in ("7", "4,3", "1,1,1,1,1,1,1"):
            assert main(["chern", "--partition", partition]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: bad partition {partition!r}: degree 7 is above the limit 6\n"
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert main(["chern", "--partition", "3,2,1"]) == 0
    assert Invariant.from_json_dict(json.loads(capsys.readouterr().out)) == chern_invariant(
        (3, 2, 1)
    )


def test_decompose_refuses_a_block_whose_chern_columns_are_above_the_limit(
    tmp_path, capsys
):
    # a co-exact block of weight 14 and degree 7: its Chern columns alone
    # would canonicalize 5040 tied terms per partition
    edges = [[2 * (i == j) for j in range(7)] for i in range(7)]
    edges[0][0] = 1
    one_form = ContractionMonomial(PHI, edges, [1] + [0] * 6, [0] * 7)
    path = write_inv(tmp_path, divergence(monomial_invariant(one_form)))

    def expire(signum, frame):
        raise TimeoutError("decompose is still building a degree-7 Chern column")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        assert main(["decompose", path]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree 7 is above the limit 6\n"


def test_verify_chern_integrals_refuses_an_order_above_the_chern_limit(capsys):
    # the suite builds chern_invariant of every degree up to --order

    def expire(signum, frame):
        raise TimeoutError("verify chern-integrals is still building a degree-7 invariant")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        assert main(["verify", "chern-integrals", "--order", "7", "--trials", "1"]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --order 7 is above the Chern degree limit 6\n"


@pytest.mark.parametrize(
    "restriction, entry",
    [
        ([[2, 2], [2]], "[2]"),
        ("x", "'x'"),
        ([[2, 2], 5], "5"),
        # not a list: refused whole, neither measured nor iterated
        (5, "5"),
        ({"a": 1}, "{'a': 1}"),
        ("ab", "'ab'"),
    ],
    ids=["short-entry", "string", "number", "whole-number", "whole-object", "whole-string"],
)
def test_restriction_entries_that_are_not_pairs_are_refused(tmp_path, capsys, restriction, entry):
    message = f"restriction entries must be [alpha, beta] pairs, got {entry}"
    inv = chern_invariant((1, 1))
    with pytest.raises(ValueError) as exc:
        decompose(inv, restriction)
    assert str(exc.value) == message
    path, restrict = write_inv(tmp_path, inv), write_json(tmp_path, restriction, "caps.json")
    assert main(["decompose", path, "--restrict", restrict]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad restriction list in {restrict}: {message}\n"


def _invar(*argv, stdout):
    """The CLI in a new process that imports this checkout's package, its
    stderr piped."""
    path = [str(Path(invar.cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-m", "invar.cli", *argv]
    return subprocess.Popen(argv, env=env, stdout=stdout, stderr=subprocess.PIPE)


def test_a_closed_stdout_ends_quietly():
    """Output cut by its reader, as by `invar chern --partition 6 | head -1`
    (131 KB, more than a pipe holds), exits 1 with nothing on stderr; a
    reader gone before the first write ends the same way."""
    with _invar("chern", "--partition", "6", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1
    read, write = os.pipe()
    os.close(read)
    with _invar("chern", "--partition", "2", stdout=write) as proc:
        os.close(write)
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "file.json"])
    assert exc.value.code == 2


def test_verify_a3_and_linear_suites_pass(capsys):
    assert main(["verify", "a3", "--dim", "2", "--trials", "1"]) == 0
    captured = capsys.readouterr()
    assert [(r["check"], r["status"], r["dim"]) for r in report_lines(captured.out)] == [
        ("a3", "ok", 2)
    ]
    assert "a3 == P_3 + div(Q) + lap^2(S)/8: exact [1 checks: ok]" in captured.err
    assert main(["verify", "linear", "--dim", "1", "--order", "3"]) == 0
    captured = capsys.readouterr()
    rows = report_lines(captured.out)
    assert [(r["check"], r["status"]) for r in rows] == [("linear", "ok")] * 3
    assert [r["rhs"] for r in rows] == [f"{j}/{j + 1}! * lap^{j - 1}(S)" for j in (1, 2, 3)]
    assert "[3 checks: ok]" in captured.err


def test_a_failed_check_is_reported_and_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        invar.cli, "kernel_coefficient_reference", lambda pot, j: pot.ring.zero
    )
    assert main(["verify", "a1", "--dim", "1"]) == 1
    captured = capsys.readouterr()
    assert [r["status"] for r in report_lines(captured.out)] == ["failed"]
    assert captured.err == "a1 check [1 checks: 1 FAILED]\n"


def test_decompose_refuses_to_print_a_witness_that_fails_verification(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(invar.cli, "verify_decomposition", lambda inv, dec: False)
    assert main(["decompose", write_inv(tmp_path, chern_invariant((2,)))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: witness failed re-verification\n"


def test_oracle_refuses_a_one_form(tmp_path, capsys):
    one_form = monomial_invariant(ContractionMonomial(PHI, ((2,),), (1,), (0,)))
    argv = ["oracle", write_inv(tmp_path, one_form), "--dim", "1"]
    assert_one_line_refusal(capsys, argv, "scalar invariants only")


def test_bergman_refuses_a_dim_the_potential_file_does_not_have(tmp_path, capsys):
    jet = {"alpha": [2], "beta": [2], "re": "3"}
    path = write_json(tmp_path, {"n": 1, "jets": [jet]}, "pot.json")
    argv = ["bergman", "--dim", "2", "--potential", path, "--order", "1"]
    assert_one_line_refusal(capsys, argv, "--dim 2 but potential file has n=1")


def test_a_roundtrip_draw_that_raises_is_a_failed_line(capsys, monkeypatch):
    def broken(inv, restriction=None):
        raise RuntimeError("no solve")

    monkeypatch.setattr(invar.cli, "decompose", broken)
    assert main(["verify", "roundtrip", "--trials", "2", "--seed", "4"]) == 1
    captured = capsys.readouterr()
    rows = report_lines(captured.out)
    assert [(r["status"], r["lhs"]) for r in rows] == [("failed", "RuntimeError: no solve")] * 2
    assert "[2 checks: 2 FAILED]" in captured.err


def test_symbolic_values_render_with_every_sign_and_truncate_at_the_limit():
    ring = SymbolicRing(8)
    assert invar.cli._fmt_gauss(GaussRat(0, 2)) == "2*i"
    assert invar.cli._fmt_gauss(GaussRat(Fraction(1, 2), -3)) == "1/2-3*i"
    assert invar.cli._fmt_gauss(GaussRat(1, 1)) == "1+1*i"
    assert invar.cli.fmt_element(ring, ring.zero) == "0"
    assert invar.cli.fmt_element(ring, {(): GaussRat(0, -1)}) == "(-1*i)*1"
    x = {(): GR_ONE}
    for k in range(2, 7):
        x = ring.add(x, ring.symbol(((k,), (2,))))
    full = invar.cli.fmt_element(ring, x)
    assert full == "(1)*1 + " + " + ".join(f"(1)*a[{k}|2]" for k in range(2, 7))
    assert invar.cli.fmt_element(ring, x, limit=len(full)) == full
    assert invar.cli.fmt_element(ring, x, limit=30) == full[:10] + " ... [6 terms]"
