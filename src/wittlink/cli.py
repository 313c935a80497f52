"""Command-line entry point: one-shot exact computations and reports.

Subcommands: witt, field, linking, monodromy, reciprocity, bridge,
verify-all.  Global flags --format {text,json,csv}, --seed N, --jobs N
(--jobs is accepted for compatibility and has no effect: every command
runs in one thread).

Exit codes: 0 success, 1 usage or parse error, 2 domain violation
(ramified prime, non-coprime level, non-unit, a size cap, a result too
large to print, ...), 3 verification mismatch.

JSON output is schema-stable with top-level keys {command, config,
rows|report, verdict} and contains exact integers only; every float is a
display field suffixed _display.  Identical inputs produce byte-identical
output for equal config (for that reason wall times appear in text output
only).

How a command runs: each subparser registers its runner cmd_<command>
with set_defaults(run=...), and main calls ns.run(ns).  A runner refuses
an argument past its size cap through _cap, and a grid flag below its
floor through _at_least, before any work.  It returns an Output with what
only it decides: config, payload (a list of rows or one report dict),
text lines, a verdict ("ok" by default) and, when the rows' own keys and
values do not make the CSV, a table.  _emit derives the rest (the
command name, the JSON key "rows" or "report", the default CSV table),
builds the whole document under the render guard and writes it once.  A
"fail" verdict exits 3.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DomainViolation, ParseError
from .rings import Polynomial, RingElement, RingSpec
from .witt import WittVector, frobenius, ghost, split_counit, teichmuller, witt_add, witt_mul
from .cft import (
    AbelianField,
    _check_level,
    abelian_field,
    check_coprime,
    cyclic_quotient,
    cyclotomic_field,
    linking_hom,
    quadratic_field_subgroup,
    rationals_field,
    subgroup_generated,
)
from .orbits import (
    FieldFibers,
    cc_fiber_infinite_level,
    decompose,
    odd_prime_pairs,
    reciprocity_rows,
)
from .bridge import bridge_compare
from .verify import VerifyConfig, run_all


# Size caps on CLI arguments, so that one argument cannot take minutes or
# gigabytes; each is reported as a domain violation that names the limit.
MAX_FROBENIUS_INDEX = 10_000
MAX_GHOST_PRECISION = 10_000
MAX_LITERAL_DEGREE = 1_000
# Result-degree caps for witt mul and frob: the Newton rebuild of a product
# part of degree D = deg f * deg g costs O(D^2), F_n reads n * deg power sums.
MAX_PRODUCT_DEGREE = 2_500
MAX_FROBENIUS_DEGREE = 10_000
# Over a ring with payload vectors of width w (RingSpec.width: phi(n) over
# --ring C<n>, 1 over every other ring) one coefficient product multiplies
# two length-w vectors, so _check_work weights the caps by w: the product
# degree by w (D * w <= 2,500 is D^2 * w^2 <= 2,500^2), the frob and ghost
# work below by w^2.  The limits over Z stay the degree caps.  At D = 2,500
# (two degree-50 literals, digits 1-9) the product took 2.8-4.3 s over Z;
# the worst accepted C<n> input is C1 or C2 (phi = 1) at the same D,
# 3.6-4.3 s, on the same integer kernels as Z.  The worst accepted gcd
# input is (P0)/(P1) times (P2)/(P3), four degree-35 literals with digits
# 1-9 (D = 2,450): 2.8-4.2 s over Z and 2.9-3.4 s over Q, of which the
# modular gcd of the coprime result parts, 1.3 * 10^6 packed bits and so
# past witt.MAX_HEURISTIC_BITS, takes 0.7 s (the heuristic gcd would take
# 2.0 s).  C3 at D = 1,225 took 0.33-0.48 s and C5 at D = 625 0.08-0.09
# s.  The first refused C97 product has degree 27; degrees 25 and 26 take
# 0.04-0.07 s, most of it generating the width-96 payload kernel once.
# F_n's n * deg power sums cost O(deg) each.  At n * deg^2 = 200,000 (n =
# 500, degree 20, digits 1-9), frob took 0.13-0.17 s over Z; the worst
# accepted C<n> input is C1 or C2 at that size, 0.14-0.16 s, and C3 at n =
# 125 takes 0.02 s (three runs each, timed through cli.main, Python 3.11,
# one core of a shared 2-core Intel Xeon host).
MAX_FROBENIUS_WORK = 200_000
# witt ghost computes N power sums at O(deg) each on integers that grow with
# N.  At N * deg = 200,000 with digits 1-9 (degree 20, N = 10,000) ghost
# took 0.95-0.99 s over Z; the worst accepted C<n> input is C1 or C2 at that
# size, 1.0-1.2 s.  All three are refused after the work as too large to
# render.  C3 at N = 2,500 takes 0.06 s, and N = 10,000 alone costs about
# 0.5 s at degree 1.
MAX_GHOST_WORK = 200_000
# --ring C<n> computes on payload vectors of length phi(n); the level is
# checked before Phi_n is built.  Under the weighted work caps a C97 input
# may have product degree 26, n * deg^2 21 for frob and N * deg 21 for
# ghost.
MAX_CYCLOTOMIC_RING_LEVEL = 100
# bridge and monodromy enumerate (Z/m)^* at the level m.  The bridge report
# checks every closed-orbit label in one pass over the level-m packet, so
# its cost grows with phi(m); the worst case is a prime level with
# p = 1 mod m and the full cyclotomic field, where both sides have phi(m)
# components.  At level 199999 with p = 5599973 and --cyclotomic 199999,
# the text report took 1.4-1.5 s and the 3.4 MB JSON report 1.6-1.65 s;
# --cyclotomic 5 --prime 7 --level 199995 took 0.18-0.19 s (three fresh
# processes each, timed through cli.main, same host).  monodromy lists
# every component: at that level and prime it took 1.3-2.0 s as text
# (1.7 MB) and 1.8-3.0 s as JSON (24 MB); at --level 10000000 it took
# 13-15 s uncapped.
MAX_BRIDGE_LEVEL = 200_000
# reciprocity tabulates every ordered pair of odd primes below --max-prime,
# about (B / log B)^2 rows over quadratic fields of level up to 4B, and
# keeps every cyclic quotient it builds for the life of the process: at
# 2,000 (90,902 rows) the cold JSON table took 3.3-4.1 s at a peak RSS of
# 563 MB, at 1,000 0.9-1.2 s and 159 MB (three fresh processes each, timed
# through cli.main on a 2-core host).
MAX_RECIPROCITY_PRIME = 2_000
# 6 is the least --max-prime below which two odd primes lie: the pair (3, 5)
_LEAST_PAIR_BOUND = 6


def _cap(what: str, value: int, limit: int) -> None:
    """Refuse an argument or a work measure past its size cap, before any work."""
    if value > limit:
        raise DomainViolation(f"{what} {value} exceeds the limit {limit}")


def _at_least(ns: argparse.Namespace, name: str, least: int) -> None:
    """Refuse a grid flag that is set below the least value that runs a check."""
    value = getattr(ns, name)
    if value is not None and value < least:
        raise DomainViolation(f"--{name.replace('_', '-')} must be at least {least}, got {value}")


# --------------------------------------------------------------------------
# literal parsing


def parse_ring(text: str) -> RingSpec:
    s = text.strip()
    if s in ("Z", "z"):
        return RingSpec.integers()
    if s in ("Q", "q"):
        return RingSpec.rationals()
    head, rest = s[:1].upper(), s[1:]
    if rest.isdecimal():
        n = _parse_int(rest)
        if head == "F":
            return RingSpec.prime_field(n)
        if head == "Z":
            return RingSpec.mod_ring(n)
        if head == "C":
            _cap("cyclotomic ring level", n, MAX_CYCLOTOMIC_RING_LEVEL)
            return RingSpec.cyclotomic(n)
    raise ParseError(f"unknown ring {text!r}; use Z, Q, F<p>, Z<n> or C<n>")


def _skip_spaces(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def parse_poly_literal(text: str, spec: RingSpec) -> Polynomial:
    """Parse integer-coefficient literals such as ``1-5t+6t^2``."""
    s = text
    terms: dict[int, int] = {}
    i = _skip_spaces(s, 0)
    if i >= len(s):
        raise ParseError("empty polynomial literal")
    first = True
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i = _skip_spaces(s, i + 1)
        elif not first:
            raise ParseError(f"expected '+' or '-' at position {i}: {s[i:i+8]!r}")
        j = i
        while j < len(s) and s[j].isdecimal():
            j += 1
        coef = _parse_int(s[i:j]) if j > i else None
        i = _skip_spaces(s, j)
        exp = 0
        if i < len(s) and s[i] == "t":
            exp = 1
            i += 1
            if i < len(s) and s[i] == "^":
                i += 1
                j = i
                while j < len(s) and s[j].isdecimal():
                    j += 1
                if j == i:
                    raise ParseError(f"expected exponent digits at position {i}: {s[i:i+8]!r}")
                exp = _parse_int(s[i:j])
                if exp > MAX_LITERAL_DEGREE:
                    raise DomainViolation(
                        f"exponent {exp} exceeds the literal degree limit {MAX_LITERAL_DEGREE}"
                    )
                i = j
        elif coef is None:
            raise ParseError(f"expected a coefficient or 't' at position {i}: {s[i:i+8]!r}")
        terms[exp] = terms.get(exp, 0) + sign * (1 if coef is None else coef)
        first = False
        i = _skip_spaces(s, i)
    top = max(terms)
    return Polynomial.from_ints(spec, [terms.get(k, 0) for k in range(top + 1)])


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # beyond Python's int-to-str digit limit
        raise ParseError(f"integer literal of {len(digits)} digits is too long: {exc}") from exc


def _strip_outer_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for idx, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and idx != len(s) - 1:
                    return s
        s = s[1:-1].strip()
    return s


def parse_witt_literal(text: str, spec: RingSpec) -> WittVector:
    """Parse ``P`` or ``P/Q`` with polynomial literals P, Q."""
    depth = 0
    split_at = None
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' at position {idx}")
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ParseError("more than one top-level '/' in a rational literal")
            split_at = idx
    if depth != 0:
        raise ParseError("unbalanced '(' in literal")
    if split_at is None:
        return WittVector.from_polys(parse_poly_literal(_strip_outer_parens(text), spec))
    num = parse_poly_literal(_strip_outer_parens(text[:split_at]), spec)
    den = parse_poly_literal(_strip_outer_parens(text[split_at + 1 :]), spec)
    return WittVector.from_polys(num, den)


def parse_field(ns: argparse.Namespace) -> AbelianField:
    if ns.subgroup is not None and ns.cyclotomic is None:
        raise ParseError("--subgroup needs --cyclotomic")
    if ns.quadratic is not None:
        return quadratic_field_subgroup(ns.quadratic)
    if ns.cyclotomic is not None:
        n, sub = ns.cyclotomic, ns.subgroup
        if not sub:
            return cyclotomic_field(n)
        try:
            gens = [int(x) for x in sub.replace(" ", "").split(",") if x]
        except ValueError as exc:
            raise ParseError(f"bad subgroup literal {sub!r}: comma-separated integers") from exc
        return abelian_field(n, subgroup_generated(n, gens))
    return rationals_field()


# --------------------------------------------------------------------------
# output plumbing


@dataclass
class Output:
    """What a command decides; _emit derives the rest of its document."""

    config: dict
    payload: object  # a list of rows (JSON key "rows") or one report dict ("report")
    text_lines: Iterable[str]  # read once, and only under --format text
    verdict: str = "ok"
    table: tuple | None = None  # (CSV header, CSV rows); default: the rows' keys and values


def _document(out: Output, command: str, fmt: str) -> str:
    if fmt == "json":
        key = "rows" if isinstance(out.payload, list) else "report"
        doc = {"command": command, "config": out.config, key: out.payload, "verdict": out.verdict}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        header, rows = out.table or (list(out.payload[0]), [list(row.values()) for row in out.payload])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(f"{line}\n" for line in out.text_lines)


def _emit(out: Output, command: str, fmt: str) -> None:
    """Build the whole document under the render guard, then write it once.

    A value that cannot be rendered is a domain violation and leaves stdout empty.
    """
    sys.stdout.write(_render(out, lambda o: _document(o, command, fmt)))


def _render(value, to_str=str) -> str:
    """to_str(value); an integer beyond Python's int-to-str limit is a domain violation."""
    try:
        return to_str(value)
    except ValueError as exc:
        raise DomainViolation(
            f"result too large to render: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


# --------------------------------------------------------------------------
# commands


_WITT_ARITY = {"add": 2, "mul": 2, "frob": 2, "ghost": 1, "teich": 1, "split": 1}


def _check_work(what: str, work: int, limit: int, spec: RingSpec, power: int) -> None:
    """Refuse a witt operation whose work, weighted by spec.width**power, exceeds limit."""
    if spec.width > 1:
        work *= spec.width**power
        what = f"{what} times payload width {spec.width}" + ("^2" if power == 2 else "")
    _cap(what, work, limit)


def _int_operand(op: str, text: str, what: str) -> int:
    if not text.lstrip("-").isdecimal():
        raise ParseError(f"witt {op} needs {what}, got {text!r}")
    return _parse_int(text)


def _witt_result(op: str, args: list, precision: int, spec: RingSpec):
    """The witt operation's result, each size cap checked before its work."""
    if op == "teich":
        return teichmuller(RingElement.of(spec, _int_operand(op, args[0], "an integer")))
    if op == "frob":
        n = _int_operand(op, args[0], "an integer index")
        _cap("Frobenius index", n, MAX_FROBENIUS_INDEX)
        args = args[1:]
    elif op == "ghost":
        _cap("ghost precision", precision, MAX_GHOST_PRECISION)
    f, *rest = [parse_witt_literal(arg, spec) for arg in args]
    degree = max(f.num.degree, f.den.degree)
    if op == "add":
        return witt_add(f, *rest)
    if op == "mul":
        g = rest[0]
        a, b, c, d = f.num.degree, f.den.degree, g.num.degree, g.den.degree
        _check_work("product degree", max(a * c + b * d, a * d + b * c), MAX_PRODUCT_DEGREE, spec, 1)
        return witt_mul(f, g)
    if op == "frob":
        _cap("Frobenius index times degree", n * degree, MAX_FROBENIUS_DEGREE)
        _check_work("Frobenius index times degree squared", n * degree * degree, MAX_FROBENIUS_WORK, spec, 2)
        return frobenius(n, f)
    if op == "ghost":
        _check_work("ghost precision times degree", precision * degree, MAX_GHOST_WORK, spec, 2)
        return ghost(f, precision)
    return split_counit(f)


def cmd_witt(ns: argparse.Namespace) -> Output:
    spec = parse_ring(ns.ring)
    op = ns.witt_op
    if len(ns.args) != _WITT_ARITY[op]:
        raise ParseError(f"witt {op} takes {_WITT_ARITY[op]} operand(s), got {len(ns.args)}")
    rendered = _render(_witt_result(op, ns.args, ns.precision, spec))
    row = {"operation": op, "ring": str(spec), "inputs": list(ns.args), "result": rendered}
    return Output(
        {"ring": str(spec), "operation": op}, [row], [rendered],
        table=(["operation", "ring", "result"], [[op, str(spec), rendered]]),
    )


def cmd_field(ns: argparse.Namespace) -> Output:
    F = parse_field(ns)
    label, sub = F.describe(), ns.field_op
    table = None
    if sub == "split":
        p = ns.prime
        if p is None:
            raise ParseError("field split needs --prime")
        fibers = FieldFibers(F)
        fibers.check(p)
        G, art = fibers.artin(p)
        f = G.element_order(art)
        r, norm = F.degree // f, p**f
        row = {"field": label, "prime": p, "f": f, "r": r, "norm": norm, "artin_rep": art,
               "artin_modulus": G.modulus}
        text = f"f={f} r={r} artin={art} mod {G.modulus} norm={_render(norm)}"
        table = (["field", "prime", "f", "r", "norm", "artin_rep"], [[label, p, f, r, norm, art]])
    elif sub == "conductor":
        c = F.conductor
        row = {"field": label, "conductor": c}
        text = str(c)
    else:  # ramified
        R = sorted(F.ramified)
        row = {"field": label, "ramified": R}
        text = " ".join(map(str, R)) or "(none)"
        table = (["field", "ramified"], [[label, " ".join(map(str, R))]])
    return Output({"field": label, "operation": sub}, [row], [text], table=table)


def cmd_linking(ns: argparse.Namespace) -> Output:
    u = linking_hom(ns.prime, ns.level)
    row = {"prime": ns.prime, "level": ns.level, "value": u.value}
    return Output({"prime": ns.prime, "level": ns.level}, [row], [str(u)])


def cmd_monodromy(ns: argparse.Namespace) -> Output:
    _cap("monodromy level", ns.level, MAX_BRIDGE_LEVEL)
    p, m = ns.prime, ns.level
    label_info = {}
    if ns.side == "cc" and ns.quadratic is None and ns.cyclotomic is None and ns.subgroup is None:
        G, monodromy = cc_fiber_infinite_level(p, m)
        dec = decompose(G, monodromy)
    else:
        fibers = FieldFibers(parse_field(ns))
        # p is an unramified prime, then prime to the level, which is at least 1; with --side cc
        # the level is only checked: the table is Gal(F/Q) as fibers.artin presents it
        fibers.check(p)
        check_coprime(p, m)
        _check_level(m)
        if ns.side == "cc":
            G, monodromy, dec = fibers.covering(p)
        else:
            label_info["labels"] = list(cyclic_quotient(m, p).reps)
            G, monodromy = fibers.packet(p, m)
            dec = decompose(G, monodromy)
            if m % fibers.field.conductor == 0:  # label fibers need the character
                fib = fibers.flow(p, m)[1]
                label_info["fiber_per_label"] = {
                    "count": fib.count,
                    "covering_degree": fib.covering_degree,
                    **fib.length_fields(p),
                }
    components = [" ".join(map(str, members)) for members in dec.components]
    text = [
        f"side={ns.side} prime={p} group order {G.order} monodromy {monodromy} mod {G.modulus}",
        f"components: {dec.count} of size {dec.covering_degree} "
        f"(length {dec.covering_degree}*log({p}) ~ {dec.circle_length_display(p):.6f} display-only)",
        *("  " + c for c in components),
    ]
    if "fiber_per_label" in label_info:
        fpl = label_info["fiber_per_label"]
        text.append(
            f"fiber over each of {len(label_info['labels'])} closed-orbit labels: "
            f"{fpl['count']} components of size {fpl['covering_degree']}"
        )
    report = {
        "side": ns.side,
        "prime": p,
        "level": G.modulus,
        "monodromy": monodromy,
        "group_order": G.order,
        "components": [
            {"component": list(members), "size": dec.covering_degree, **dec.length_fields(p)}
            for members in dec.components
        ],
        **label_info,
    }
    return Output(
        {"side": ns.side, "prime": p, "level": m}, report, text,
        table=(["component", "size"], [[c, dec.covering_degree] for c in components]),
    )


def cmd_reciprocity(ns: argparse.Namespace) -> Output:
    _at_least(ns, "max_prime", _LEAST_PAIR_BOUND)
    _cap("reciprocity max prime", ns.max_prime, MAX_RECIPROCITY_PRIME)
    rows = reciprocity_rows(odd_prime_pairs(ns.max_prime))
    disagreements = sum(not r.agree for r in rows)
    payload = [
        {
            "p": r.p,
            "q": r.q,
            "legendre": r.legendre,
            "cc_count": r.cc_count,
            "deninger_count": r.deninger_count,
            "agree": r.agree,
        }
        for r in rows
    ]

    def text():
        yield f"{'p':>4} {'q':>4} {'legendre':>9} {'cc':>3} {'den':>4} agree"
        for r in rows:
            yield f"{r.p:>4} {r.q:>4} {r.legendre:>9} {r.cc_count:>3} {r.deninger_count:>4} {str(r.agree).lower()}"
        yield f"{len(rows)} rows, {disagreements} disagreements"

    return Output({"max_prime": ns.max_prime}, payload, text(), "fail" if disagreements else "pass")


def cmd_bridge(ns: argparse.Namespace) -> Output:
    _cap("bridge level", ns.level, MAX_BRIDGE_LEVEL)
    F = parse_field(ns)
    report = bridge_compare(F, ns.prime, ns.level, seed=ns.seed)
    cc, den = report.cc_side, report.deninger_side
    text = [
        f"field {report.field_label}, prime {report.prime}, level {report.level} "
        f"(conductor {report.conductor})",
        f"cc side:       {cc.count} components of size {cc.covering_degree}",
        f"deninger side: {den.count} components of size {den.covering_degree}",
        f"monodromy: cc {report.cc_monodromy.rep} mod {report.cc_monodromy.modulus}, "
        f"deninger {report.deninger_monodromy.rep} mod {report.deninger_monodromy.modulus} "
        f"-> match={str(report.monodromy_match).lower()}",
        f"psi p-part zero: {str(report.psi_zero_ok).lower()}; "
        + "; ".join(f"{name}: {str(ok).lower()}" for name, ok in report.equivariance_checks)
        + f"; anti-equivariance: {str(report.anti_equivariance).lower()}",
        f"match={str(report.match).lower()}",
    ]
    return Output(
        {"field": report.field_label, "prime": ns.prime, "level": ns.level, "seed": ns.seed},
        report.to_dict(), text, "pass" if report.match else "fail",
        table=(["field", "prime", "level", "cc_count", "den_count", "cc_f", "den_f", "match"], [[
            report.field_label, ns.prime, ns.level, cc.count, den.count,
            cc.covering_degree, den.covering_degree, report.match,
        ]]),
    )


_SAMPLE_FLAGS = ("witt_samples", "descent_samples", "equivariance_cases", "roundtrip_samples")


def cmd_verify_all(ns: argparse.Namespace) -> Output:
    # every limit is checked before any suite runs: a grid that is empty
    # would pass with 0 checks
    _at_least(ns, "cyclotomic_bound", 1)
    _at_least(ns, "max_prime", _LEAST_PAIR_BOUND)
    for name in _SAMPLE_FLAGS:
        _at_least(ns, name, 1)
    # a reduced cyclotomic bound is quick mode: scale the randomized suites
    # down too unless they were set explicitly
    defaults = VerifyConfig.quick() if ns.cyclotomic_bound < 40 else VerifyConfig()
    vcfg = VerifyConfig(
        seed=ns.seed,
        cyclotomic_bound=ns.cyclotomic_bound,
        max_prime=min(ns.max_prime, 50),
        reciprocity_prime_bound=ns.max_prime,
        **{name: getattr(ns, name) or getattr(defaults, name) for name in _SAMPLE_FLAGS},
    )
    results = run_all(vcfg)
    verdict = "pass" if all(r.passed for r in results) else "fail"
    rows = [{"suite": r.name, "passed": r.passed, "checks": r.checks, "failures": r.failures} for r in results]
    config = {
        "seed": vcfg.seed,
        "cyclotomic_bound": vcfg.cyclotomic_bound,
        "max_prime": vcfg.max_prime,
        "reciprocity_prime_bound": vcfg.reciprocity_prime_bound,
    }
    return Output(config, rows, [r.line() for r in results] + [f"verdict: {verdict}"], verdict)


# --------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors -> exit 1, not argparse's 2
        raise ParseError(message)


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    field = p.add_mutually_exclusive_group()
    field.add_argument("--cyclotomic", type=int, default=None, metavar="N",
                       help="field inside the level-N cyclotomic field")
    p.add_argument("--subgroup", type=str, default=None, metavar="A,B,...",
                   help="generators of the fixing subgroup (with --cyclotomic)")
    field.add_argument("--quadratic", type=int, default=None, metavar="Q",
                       help="the quadratic field of the odd prime Q")


@functools.cache  # one parser: it takes no argument
def build_parser() -> _Parser:
    """The parser, built on the first ``main`` call and shared by the later ones (it keeps no per-call state)."""
    usage = __doc__.split("\nHow a command runs")[0]  # the rest describes the code
    parser = _Parser(prog="wittlink", description=usage, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # pre-subcommand value alive when the post-subcommand flag is absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility; has no effect")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, run, summary: str) -> _Parser:
        sub = subs.add_parser(name, help=summary, parents=[common])
        sub.set_defaults(run=run)
        return sub

    w = command("witt", cmd_witt, "rational Witt vector arithmetic")
    w.add_argument("witt_op", choices=tuple(_WITT_ARITY))
    w.add_argument("args", nargs="+", help="operands (polynomial or P/Q literals)")
    w.add_argument("--ring", default="Z", help="Z, Q, F<p>, Z<n> or C<n>")
    w.add_argument("-N", "--precision", type=int, default=8,
                   help=f"ghost component count (at most {MAX_GHOST_PRECISION})")

    f = command("field", cmd_field, "abelian field invariants")
    f.add_argument("field_op", choices=("split", "conductor", "ramified"))
    _add_field_flags(f)
    f.add_argument("--prime", type=int, default=None)

    l = command("linking", cmd_linking, "level truncation of the linking homomorphism")
    l.add_argument("--prime", type=int, required=True)
    l.add_argument("--level", type=int, required=True)

    m = command("monodromy", cmd_monodromy, "decomposition tables for either side")
    m.add_argument("--side", choices=("cc", "deninger"), required=True)
    m.add_argument("--prime", type=int, required=True)
    m.add_argument("--level", type=int, required=True,
                   help=f"at most {MAX_BRIDGE_LEVEL}; with --side cc and a field flag it is only checked: "
                        "the table is Gal(F/Q) at the field's own level, or at its conductor when the "
                        "prime divides that level")
    _add_field_flags(m)

    r = command("reciprocity", cmd_reciprocity, "component-count table over odd prime pairs")
    r.add_argument("--max-prime", type=int, default=100, help=f"at most {MAX_RECIPROCITY_PRIME}")

    b = command("bridge", cmd_bridge, "side-by-side fiber comparison report")
    _add_field_flags(b)
    b.add_argument("--prime", type=int, required=True)
    b.add_argument("--level", type=int, required=True, help=f"at most {MAX_BRIDGE_LEVEL}")

    v = command("verify-all", cmd_verify_all, "run every acceptance suite")
    v.add_argument("--cyclotomic-bound", type=int, default=40)
    v.add_argument("--max-prime", type=int, default=100)
    v.add_argument("--witt-samples", type=int, default=None,
                   help=f"random vectors for the ring-law suite (default {VerifyConfig().witt_samples}, "
                        f"quick {VerifyConfig.quick().witt_samples})")
    v.add_argument("--descent-samples", type=int, default=None)
    v.add_argument("--equivariance-cases", type=int, default=None)
    v.add_argument("--roundtrip-samples", type=int, default=None)
    return parser


def main(argv: list | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        out = ns.run(ns)
        _emit(out, ns.command, ns.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 3 if out.verdict == "fail" else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
