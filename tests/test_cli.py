"""Command-line surface: literals, formats, exit codes, reproducibility."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wittlink.cli import (
    MAX_BRIDGE_LEVEL,
    MAX_CYCLOTOMIC_RING_LEVEL,
    MAX_FROBENIUS_DEGREE,
    MAX_FROBENIUS_INDEX,
    MAX_FROBENIUS_WORK,
    MAX_GHOST_PRECISION,
    MAX_GHOST_WORK,
    MAX_LITERAL_DEGREE,
    MAX_PRODUCT_DEGREE,
    MAX_RECIPROCITY_PRIME,
    main,
    parse_poly_literal,
    parse_ring,
    parse_witt_literal,
)
from wittlink.errors import DomainViolation, ParseError
from wittlink.rings import Polynomial, RingSpec
from wittlink.witt import WittVector

Z = RingSpec.integers()


# --------------------------------------------------------------------------
# literals


def test_parse_ring():
    assert parse_ring("Z") == RingSpec.integers()
    assert parse_ring("Q") == RingSpec.rationals()
    assert parse_ring("F7") == RingSpec.prime_field(7)
    assert parse_ring("Z10") == RingSpec.mod_ring(10)
    assert parse_ring("C5") == RingSpec.cyclotomic(5)
    with pytest.raises(ParseError):
        parse_ring("GF9")


def test_parse_poly_literal():
    assert parse_poly_literal("1-5t+6t^2", Z) == Polynomial.from_ints(Z, [1, -5, 6])
    assert parse_poly_literal("1 - 2t", Z) == Polynomial.from_ints(Z, [1, -2])
    assert parse_poly_literal("-t+1", Z) == Polynomial.from_ints(Z, [1, -1])
    assert parse_poly_literal("7", Z) == Polynomial.from_ints(Z, [7])
    assert parse_poly_literal("t^3", Z) == Polynomial.from_ints(Z, [0, 0, 0, 1])


def test_parse_poly_errors_cite_position():
    with pytest.raises(ParseError) as err:
        parse_poly_literal("1-5x", Z)
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly_literal("", Z)
    with pytest.raises(ParseError):
        parse_poly_literal("1+t^", Z)


def test_parse_witt_literal():
    f = parse_witt_literal("(1-2t)/(1-3t)", Z)
    assert f.num == Polynomial.from_ints(Z, [1, -2])
    assert f.den == Polynomial.from_ints(Z, [1, -3])
    g = parse_witt_literal("1/(1-2t)", Z)
    assert g.num == Polynomial.one(Z)
    with pytest.raises(ParseError):
        parse_witt_literal("1/(1-2t)/(1-3t)", Z)
    with pytest.raises(ParseError):
        parse_witt_literal("(1-2t", Z)


# --------------------------------------------------------------------------
# commands and exit codes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witt_mul(capsys):
    code, out, _ = run(capsys, "witt", "mul", "1-2t", "1-3t", "--ring", "Z")
    assert code == 0 and out.strip() == "1-6t"


def test_witt_ghost(capsys):
    code, out, _ = run(capsys, "witt", "ghost", "1-2t", "-N", "3", "--ring", "Z")
    assert code == 0 and out.strip() == "2 4 8"


def test_witt_frob_identity(capsys):
    code, out, _ = run(capsys, "witt", "frob", "1", "1-2t", "--ring", "Z")
    assert code == 0 and out.strip() == "1-2t"


def test_witt_frob_cyclotomic_cancellation(capsys):
    code, out, _ = run(capsys, "witt", "frob", "3", "(1-t^4)/(1+t^2)", "--ring", "C8")
    assert code == 0 and out.strip() == "1-t^2"


def test_witt_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "witt", "mul", "1-2x", "1-3t")
    assert code == 1 and "position" in err


def test_witt_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "witt", "teich", "2", "--ring", "Z6")
    assert code == 0  # teich(2) over Z/6 is fine: 1-2t
    code, _, err = run(capsys, "field", "split", "--cyclotomic", "5", "--prime", "5")
    assert code == 2 and "ramifie" in err


def test_field_split(capsys):
    code, out, _ = run(capsys, "field", "split", "--cyclotomic", "5", "--prime", "7")
    assert code == 0 and out.startswith("f=4 r=1")
    code, out, _ = run(capsys, "field", "split", "--quadratic", "5", "--prime", "11")
    assert code == 0 and out.startswith("f=1 r=2")


def test_field_conductor_and_ramified(capsys):
    code, out, _ = run(capsys, "field", "conductor", "--cyclotomic", "10", "--subgroup", "1")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "field", "ramified", "--cyclotomic", "12")
    assert code == 0 and out.strip() == "2 3"


def test_linking(capsys):
    code, out, _ = run(capsys, "linking", "--prime", "3", "--level", "20")
    assert code == 0 and out.strip() == "3 mod 20"
    code, _, err = run(capsys, "linking", "--prime", "3", "--level", "6")
    assert code == 2


def test_monodromy_tables(capsys):
    code, out, _ = run(capsys, "monodromy", "--side", "cc", "--prime", "3", "--level", "5")
    assert code == 0 and "components: 1 of size 4" in out
    code, out, _ = run(
        capsys, "monodromy", "--side", "deninger", "--prime", "11", "--level", "5",
        "--quadratic", "5",
    )
    assert code == 0 and "fiber over each of" in out


def test_reciprocity_table(capsys):
    code, out, _ = run(capsys, "reciprocity", "--max-prime", "14")
    assert code == 0
    assert "0 disagreements" in out


def test_bridge_command(capsys):
    code, out, _ = run(capsys, "bridge", "--cyclotomic", "5", "--prime", "7", "--level", "45")
    assert code == 0 and "match=true" in out
    code, out, _ = run(capsys, "bridge", "--quadratic", "5", "--prime", "11", "--level", "5")
    assert code == 0 and "2 components of size 1" in out
    code, _, err = run(capsys, "bridge", "--cyclotomic", "5", "--prime", "5", "--level", "45")
    assert code == 2


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "bridge", "--prime", "7")
    assert code == 1


# --------------------------------------------------------------------------
# output formats


def test_json_envelope_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "witt", "mul", "1-2t", "1-3t")
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "rows", "verdict"}
    assert doc["verdict"] == "ok"
    code, out, _ = run(capsys, "--format", "json", "bridge", "--quadratic", "5", "--prime", "11", "--level", "5")
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "report", "verdict"}
    assert doc["verdict"] == "pass"


def test_json_no_bare_floats(capsys):
    _, out, _ = run(capsys, "--format", "json", "bridge", "--cyclotomic", "5", "--prime", "7", "--level", "45")

    def walk(node, path=""):
        if isinstance(node, float):
            assert path.endswith("_display"), path
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, path)

    walk(json.loads(out))


def test_json_byte_identical(capsys):
    _, out1, _ = run(capsys, "--format", "json", "reciprocity", "--max-prime", "14", "--seed", "7")
    _, out2, _ = run(capsys, "--format", "json", "reciprocity", "--max-prime", "14", "--seed", "7")
    assert out1 == out2
    args = ("--format", "json", "bridge", "--cyclotomic", "5", "--prime", "7", "--level", "45", "--seed", "3")
    _, rep1, _ = run(capsys, *args)
    _, rep2, _ = run(capsys, *args)
    assert rep1 == rep2


def test_csv_has_header(capsys):
    _, out, _ = run(capsys, "--format", "csv", "reciprocity", "--max-prime", "14")
    assert out.splitlines()[0] == "p,q,legendre,cc_count,deninger_count,agree"


def test_jobs_flag_same_rows(capsys):
    _, serial, _ = run(capsys, "--format", "csv", "reciprocity", "--max-prime", "20")
    _, parallel, _ = run(capsys, "--format", "csv", "--jobs", "4", "reciprocity", "--max-prime", "20")
    assert serial == parallel


def test_format_flag_after_subcommand(capsys):
    _, out, _ = run(capsys, "witt", "mul", "1-2t", "1-3t", "--format", "json")
    assert json.loads(out)["rows"][0]["result"] == "1-6t"


def test_one_parser_per_process_prints_what_fresh_processes_print():
    # main builds its parser once per process: a csv run, a usage error and
    # a default-format run in one process each print what they print alone
    calls = [
        ["--format", "csv", "reciprocity", "--max-prime", "14"],
        ["reciprocity", "--max-prime", "many"],
        ["witt", "mul", "1-2t", "1-3t"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import contextlib, io, json, sys\n"
        "from wittlink.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results.append([main(argv), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    shared = json.loads(proc.stdout)
    for argv, got in zip(calls, shared, strict=True):
        # bytes, not text=True: its newline translation would hide the csv's \r\n
        fresh = subprocess.run([sys.executable, "-m", "wittlink.cli", *argv], capture_output=True, env=env)
        assert got == [fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()], argv
    assert [c for c, _, _ in shared] == [0, 1, 0]


# --------------------------------------------------------------------------
# golden output: the JSON of a fixed set of witt commands, one mul and one
# frob per CLI ring, as the resultant route printed them


def _golden_cases(name):
    with open(Path(__file__).with_name(name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _golden_cases("witt_golden.json"), ids=lambda c: " ".join(c["argv"]))
def test_witt_golden_json(capsys, case):
    code, out, _ = run(capsys, "--format", "json", *case["argv"])
    assert code == 0 and out == case["stdout"]


# field, monodromy, bridge and reciprocity commands in all three formats; the
# presentations include levels above the conductor and primes that divide
# the level, where the Galois quotient is re-presented at the conductor


@pytest.mark.parametrize("case", _golden_cases("cli_golden.json"), ids=lambda c: " ".join(c["argv"]))
def test_cli_golden(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


# the README's CLI examples: each line with a comment prints it, up to any "..."


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("wittlink ") and " # " in line]


def test_readme_lists_its_examples():
    assert len(_readme_examples()) == 11


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_cli_example(capsys, line):
    command, expected = line.split(" # ", 1)
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0 and out.splitlines()[0].startswith(expected.split("...")[0].strip())


# --------------------------------------------------------------------------
# the CLI boundary: every bad input ends in its documented exit code


BAD_INPUTS = [
    # argv, exit code, stderr prefix
    (["field", "split", "--cyclotomic", "0", "--prime", "3"], 2, "error: level must be >= 1"),
    (["field", "conductor", "--cyclotomic", "0", "--subgroup", "1"], 2, "error: level must be >= 1"),
    (["field", "ramified", "--cyclotomic", "0"], 2, "error: level must be >= 1"),
    (["field", "split", "--cyclotomic", "9127", "--prime", "3"], 2, "error: result too large to render"),
    (["--format", "json", "field", "split", "--cyclotomic", "9127", "--prime", "3"], 2,
     "error: result too large to render"),
    (["witt", "frob", "200000", "1-2t"], 2,
     f"error: Frobenius index 200000 exceeds the limit {MAX_FROBENIUS_INDEX}"),
    (["witt", "frob", "10000", "1-9t"], 2, "error: result too large to render"),
    (["witt", "ghost", "1-9t", "-N", "5000"], 2, "error: result too large to render"),
    (["witt", "ghost", "1-2t", "-N", "20000"], 2,
     f"error: ghost precision 20000 exceeds the limit {MAX_GHOST_PRECISION}"),
    (["witt", "ghost", "(1-2t)/(1-t^1000)", "-N", "10000"], 2,
     f"error: ghost precision times degree 10000000 exceeds the limit {MAX_GHOST_WORK}"),
    (["witt", "mul", "1-t^60", "1-t^60"], 2,
     f"error: product degree 3600 exceeds the limit {MAX_PRODUCT_DEGREE}"),
    (["witt", "mul", "(1-2t^30)/(1-3t^60)", "1-t^50"], 2,
     f"error: product degree 3000 exceeds the limit {MAX_PRODUCT_DEGREE}"),
    (["witt", "frob", "101", "1-t^100"], 2,
     f"error: Frobenius index times degree 10100 exceeds the limit {MAX_FROBENIUS_DEGREE}"),
    (["witt", "frob", "10", "1-t^1000"], 2,
     f"error: Frobenius index times degree squared 10000000 exceeds the limit {MAX_FROBENIUS_WORK}"),
    (["witt", "mul", "1-t^100000000000", "1-2t"], 2,
     f"error: exponent 100000000000 exceeds the literal degree limit {MAX_LITERAL_DEGREE}"),
    (["witt", "mul", "1-" + "9" * 5000 + "t", "1-2t"], 1,
     "error: integer literal of 5000 digits is too long"),
    (["witt", "frob", "0", "1-2t"], 2, "error: Frobenius index must be >= 1"),
    (["witt", "frob", "x", "1-2t"], 1, "error: witt frob needs an integer index"),
    (["witt", "mul", "1-2x", "1-3t"], 1, "error: expected"),
    (["witt", "add", "1-2t", "1-3t", "--ring", "Z1"], 2, "error: modulus must be >= 2"),
    (["witt", "mul", "1-t", "1-2t", "--ring", "C101"], 2,
     f"error: cyclotomic ring level 101 exceeds the limit {MAX_CYCLOTOMIC_RING_LEVEL}"),
    (["witt", "mul", "1-t", "1-2t", "--ring", "C" + "9" * 5000], 1,
     "error: integer literal of 5000 digits is too long"),
    (["witt", "mul", "1-t-t^2-t^3", "1" + "".join(f"+t^{k}" for k in range(1, 10)), "--ring", "C97"], 2,
     f"error: product degree times payload width 96 2592 exceeds the limit {MAX_PRODUCT_DEGREE}"),
    (["witt", "frob", "4", "1-t^10", "--ring", "C35"], 2,
     "error: Frobenius index times degree squared times payload width 24^2 230400 exceeds the limit "
     f"{MAX_FROBENIUS_WORK}"),
    (["witt", "ghost", "1-2t", "-N", "22", "--ring", "C97"], 2,
     f"error: ghost precision times degree times payload width 96^2 202752 exceeds the limit {MAX_GHOST_WORK}"),
    (["linking", "--prime", "3", "--level", "0"], 2, "error: 3 divides the level 0"),
    (["bridge", "--prime", "7"], 1, "error: the following arguments are required"),
    (["bridge", "--cyclotomic", "5", "--prime", "7", "--level", "5000005"], 2,
     f"error: bridge level 5000005 exceeds the limit {MAX_BRIDGE_LEVEL}"),
    (["monodromy", "--side", "cc", "--prime", "3", "--level", "10000000"], 2,
     f"error: monodromy level 10000000 exceeds the limit {MAX_BRIDGE_LEVEL}"),
    # primality is checked before coprimality with the level
    (["monodromy", "--side", "deninger", "--prime", "0", "--level", "5"], 2, "error: 0 is not prime"),
    (["monodromy", "--side", "deninger", "--prime", "4", "--level", "6"], 2, "error: 4 is not prime"),
    # with a field flag the cc table sits at the field's own level, but --level is still checked;
    # the first of these exited 0
    (["monodromy", "--side", "cc", "--prime", "3", "--level", "6", "--cyclotomic", "7"], 2,
     "error: 3 divides the level 6"),
    (["monodromy", "--side", "cc", "--prime", "4", "--level", "6", "--cyclotomic", "7"], 2, "error: 4 is not prime"),
    # a level below 1 is refused as on every other route; gcd(7, -5) = 1, and this exited 0
    (["--format", "json", "monodromy", "--side", "cc", "--cyclotomic", "5", "--prime", "7", "--level", "-5"], 2,
     "error: level must be >= 1, got -5"),
    # a field flag that would be ignored is refused: these exited 0 with Q, the quadratic field
    # and the level-5 fiber
    (["field", "conductor", "--subgroup", "1,2"], 1, "error: --subgroup needs --cyclotomic"),
    (["field", "conductor", "--quadratic", "5", "--cyclotomic", "12"], 1,
     "error: argument --cyclotomic: not allowed with argument --quadratic"),
    (["monodromy", "--side", "cc", "--prime", "3", "--level", "5", "--subgroup", "4"], 1,
     "error: --subgroup needs --cyclotomic"),
    # parts without constant term 1 are refused before the normalization;
    # these ended in IndexError or ValueError tracebacks, or printed a wrong
    # answer with exit 0 ("(1)/(1+6t)" over F7, "1" for (1-t)/(t-t^2))
    *[
        (["witt", "add", literal, "1", "--ring", ring], 2,
         "error: numerator and denominator need constant term 1")
        for literal, rings in [
            ("(1-2t)/(0)", ("Z", "Q", "F7", "C5")),
            ("(2t)/(t)", ("Z", "Q", "F7")),
            ("(t+t^2)/(t)", ("Z", "Q", "F7")),
            ("(t)/(1-t)", ("F7",)),
            ("(1-t)/(t-t^2)", ("Z", "Q", "F7")),
            ("(t)/(t)", ("Z",)),
        ]
        for ring in rings
    ],
    # grids that would run 0 checks and still pass
    (["verify-all", "--cyclotomic-bound", "-5", "--max-prime", "-3"], 2,
     "error: --cyclotomic-bound must be at least 1, got -5"),
    (["verify-all", "--max-prime", "5"], 2, "error: --max-prime must be at least 6, got 5"),
    (["reciprocity", "--max-prime", "5"], 2, "error: --max-prime must be at least 6, got 5"),
    (["reciprocity", "--max-prime", str(MAX_RECIPROCITY_PRIME + 1)], 2,
     f"error: reciprocity max prime {MAX_RECIPROCITY_PRIME + 1} exceeds the limit {MAX_RECIPROCITY_PRIME}"),
    (["verify-all", "--witt-samples", "0"], 2, "error: --witt-samples must be at least 1, got 0"),
    (["verify-all", "--descent-samples", "0"], 2, "error: --descent-samples must be at least 1, got 0"),
    (["verify-all", "--equivariance-cases", "0"], 2,
     "error: --equivariance-cases must be at least 1, got 0"),
    (["verify-all", "--cyclotomic-bound", "3", "--max-prime", "7", "--roundtrip-samples", "-4"], 2,
     "error: --roundtrip-samples must be at least 1, got -4"),
]


# the first input each width-weighted witt cap refuses, and the last it
# accepts: the refusal comes before the kernel runs
WEIGHTED_CAPS = [
    ("witt_mul", ["witt", "mul", "1-t-t^2-t^3", "1-t^9"], ["witt", "mul", "1-t-t^2", "1-t^13"], "C97"),
    ("frobenius", ["witt", "frob", "4", "1-t^10"], ["witt", "frob", "3", "1-t^10"], "C35"),
    ("ghost", ["witt", "ghost", "1-2t", "-N", "22"], ["witt", "ghost", "1-2t", "-N", "21"], "C97"),
]


@pytest.mark.parametrize("kernel, refused, accepted, ring", WEIGHTED_CAPS, ids=[c[0] for c in WEIGHTED_CAPS])
def test_weighted_witt_caps_refuse_before_work(capsys, monkeypatch, kernel, refused, accepted, ring):
    from wittlink import cli

    assert run(capsys, *accepted, "--ring", ring)[0] == 0
    assert run(capsys, *refused, "--ring", "Z")[0] == 0  # the limits over Z are unchanged

    def refuse(*args):
        raise AssertionError(f"{kernel} ran before the cap refused")

    monkeypatch.setattr(cli, kernel, refuse)
    code, out, err = run(capsys, *refused, "--ring", ring)
    assert (code, out) == (2, "") and "exceeds the limit" in err


@pytest.mark.parametrize("argv", [a for a, _, _ in BAD_INPUTS if a[0] in ("verify-all", "reciprocity")], ids=" ".join)
def test_vacuous_grids_are_refused_before_any_work(capsys, monkeypatch, argv):
    from wittlink import cli

    def refuse(*args):
        raise AssertionError("a suite or a table row ran before the refusal")

    monkeypatch.setattr(cli, "run_all", refuse)
    monkeypatch.setattr(cli, "reciprocity_rows", refuse)
    assert run(capsys, *argv)[:2] == (2, "")


def test_emit_refuses_an_unrenderable_document(capsys):
    # the whole document is built under the render guard before anything is written
    from wittlink.cli import Output, _emit
    from wittlink.errors import DomainViolation

    big = 10**5000
    out = Output({}, [{"norm": big}], ["norm"])
    for fmt in ("json", "csv"):
        with pytest.raises(DomainViolation, match="result too large to render"):
            _emit(out, "field", fmt)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, code, prefix", BAD_INPUTS, ids=[" ".join(a)[:40] for a, _, _ in BAD_INPUTS])
def test_bad_input_exit_codes(capsys, argv, code, prefix):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert err.startswith(prefix), err
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("prime, level, line", [
    ("7", "35", "error: 7 divides the level 35\n"),
    ("5", "45", "error: 5 ramifies in Q(mu_5) (ramified set [5])\n"),
], ids=["p divides the level", "p ramifies and divides the level"])
def test_bridge_and_monodromy_refuse_a_level_alike(capsys, prime, level, line):
    # both commands refuse through one path: p an unramified prime first, then prime to the level
    flags = ["--cyclotomic", "5", "--prime", prime, "--level", level]
    for command in (["bridge"], ["monodromy", "--side", "deninger"]):
        assert run(capsys, *command, *flags) == (2, "", line)


def _split_moduli(monkeypatch, argv) -> set:
    """The moduli of every quotient group a field split run asks for."""
    from wittlink import cft, orbits

    asked = set()
    real = cft.quotient_group

    def counted(modulus, subgroup):
        asked.add(modulus)
        return real(modulus, subgroup)

    for module in (cft, orbits):
        monkeypatch.setattr(module, "quotient_group", counted)
    assert main(argv) == 0
    return asked


def test_field_split_builds_only_the_table_it_reads(capsys, monkeypatch):
    # Q(mu_10): 3 is prime to the level, so Gal(F/Q) is read at the level 10;
    # 2 divides it but not the conductor 5, so only the conductor's table is built
    assert _split_moduli(monkeypatch, ["field", "split", "--cyclotomic", "10", "--prime", "3"]) == {10}
    assert _split_moduli(monkeypatch, ["field", "split", "--cyclotomic", "10", "--prime", "2"]) == {5}
    assert capsys.readouterr().out == "f=4 r=1 artin=3 mod 10 norm=81\nf=4 r=1 artin=2 mod 5 norm=16\n"


# --------------------------------------------------------------------------
# the literal boundary: small literals, zero constant terms and 0 included


def _literal(coeffs) -> str:
    """The integer polynomial literal in t with these coefficients, ascending; "0" for none."""
    text = ""
    for k, c in enumerate(coeffs):
        if c:
            power = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            mag = "" if abs(c) == 1 and k else str(abs(c))
            text += ("-" if c < 0 else "+") + mag + power
    return text.removeprefix("+") or "0"


_COEFFS = st.lists(st.integers(-3, 3), min_size=1, max_size=4)  # degree <= 3
_FUZZ_RINGS = ["Z", "Q", "F7", "Z6", "C5"]
_FUZZ_OPS = [["add"], ["mul"], ["frob", "2"], ["ghost"]]


@given(st.sampled_from(_FUZZ_RINGS), st.sampled_from(_FUZZ_OPS), _COEFFS, _COEFFS, _COEFFS, _COEFFS)
@settings(max_examples=300, deadline=None)
def test_witt_literals_exit_0_or_2(ring, op, a, b, c, d):
    f, g = f"({_literal(a)})/({_literal(b)})", f"({_literal(c)})/({_literal(d)})"
    argv = ["witt", *op, f] + ([g] if op[0] in ("add", "mul") else []) + ["--ring", ring]
    if op[0] == "ghost":
        argv += ["-N", "4"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@given(st.sampled_from(_FUZZ_RINGS), _COEFFS, _COEFFS)
@settings(max_examples=300, deadline=None)
def test_from_polys_refuses_or_keeps_the_quotient(ring, a, b):
    spec = parse_ring(ring)
    num, den = Polynomial.from_ints(spec, a), Polynomial.from_ints(spec, b)
    try:
        f = WittVector.from_polys(num, den)
    except DomainViolation:
        return
    assert f.num * den == num * f.den
