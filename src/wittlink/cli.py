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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .errors import DomainViolation, ParseError
from .rings import Polynomial, RingElement, RingSpec, primes_below
from .witt import WittVector, frobenius, ghost, split_counit, teichmuller, witt_add, witt_mul
from .cft import (
    AbelianField,
    abelian_field,
    conductor,
    cyclotomic_field,
    linking_hom,
    quadratic_field_subgroup,
    ramified_set,
    rationals_field,
    split_invariants,
    subgroup_generated,
)
from .orbits import (
    cc_fiber,
    cc_fiber_infinite_level,
    closed_orbit_labels,
    decompose,
    deninger_packet,
    packet_fibers,
    reciprocity_row,
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
# with digits 1-9 the product took 1.5-1.8 s over Z; the worst accepted
# C<n> input is C1 or C2 (phi = 1) at the same D, 3.3-4.4 s, since their
# length-1 vectors run at about half the speed of plain integers; C3 at
# D = 1,250 took 1.1 s.  The first refused C97 product has degree 27
# (degree 26 takes 0.01 s); the degree-2,500 one, 26-32 s, is refused.
# F_n's n * deg power sums cost O(deg) each.  At n * deg^2 = 200,000 (n =
# 500, degree 20, digits 1-9), frob took 0.2-0.3 s over Z and Q, 0.3-0.6 s
# over Z[zeta_8] and about 1 s over Z[zeta_35] before the phi(n)^2 weight;
# with it the worst accepted C<n> input is C2 at that size, 0.5-0.65 s, and
# C3 at n = 125 takes 0.1 s (Python 3.11, one core of an Intel Xeon host).
MAX_FROBENIUS_WORK = 200_000
# witt ghost computes N power sums at O(deg) each on integers that grow with
# N.  At N * deg = 200,000 with digits 1-9, ghost took 0.9-1.2 s over Z at
# degree 20 and N = 10,000 (refused as too large to render), 1.2-1.3 s over
# Q and 1.6-2.2 s over Z[zeta_35] before the phi(n)^2 weight; with it the
# worst accepted C<n> input is C2 at that size, 1.2 s (also refused as too
# large to render), and C3 at N = 2,500 takes 0.2 s.  N = 10,000 alone
# costs about 1 s at degree 1.
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


# --------------------------------------------------------------------------
# literal parsing


def parse_ring(text: str) -> RingSpec:
    s = text.strip()
    if s in ("Z", "z"):
        return RingSpec.integers()
    if s in ("Q", "q"):
        return RingSpec.rationals()
    head, rest = s[:1].upper(), s[1:]
    if rest.isdigit():
        n = _parse_int(rest)
        if head == "F":
            return RingSpec.prime_field(n)
        if head == "Z":
            return RingSpec.mod_ring(n)
        if head == "C":
            if n > MAX_CYCLOTOMIC_RING_LEVEL:
                raise DomainViolation(
                    f"cyclotomic ring level {n} exceeds the limit {MAX_CYCLOTOMIC_RING_LEVEL}"
                )
            return RingSpec.cyclotomic(n)
    raise ParseError(f"unknown ring {text!r}; use Z, Q, F<p>, Z<n> or C<n>")


def _skip_spaces(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def parse_poly_literal(text: str, spec: RingSpec, var: str = "t") -> Polynomial:
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
        while j < len(s) and s[j].isdigit():
            j += 1
        coef = _parse_int(s[i:j]) if j > i else None
        i = _skip_spaces(s, j)
        exp = 0
        if i < len(s) and s[i] == var:
            exp = 1
            i += 1
            if i < len(s) and s[i] == "^":
                i += 1
                j = i
                while j < len(s) and s[j].isdigit():
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
            raise ParseError(f"expected a coefficient or '{var}' at position {i}: {s[i:i+8]!r}")
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
    if getattr(ns, "quadratic", None) is not None:
        return quadratic_field_subgroup(ns.quadratic)
    if getattr(ns, "cyclotomic", None) is not None:
        n = ns.cyclotomic
        sub = getattr(ns, "subgroup", None)
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
    command: str
    config: dict
    payload_key: str  # "rows" or "report"
    payload: object
    verdict: str
    text_lines: list
    csv_header: list
    csv_rows: list


def _document(out: Output, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "command": out.command,
            "config": out.config,
            out.payload_key: out.payload,
            "verdict": out.verdict,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(out.csv_header)
        writer.writerows(out.csv_rows)
        return buf.getvalue()
    return "".join(f"{line}\n" for line in out.text_lines)


def _emit(out: Output, fmt: str) -> None:
    """Build the whole document under the render guard, then write it once.

    A value that cannot be rendered is a domain violation and leaves stdout empty.
    """
    sys.stdout.write(_render(out, lambda o: _document(o, fmt)))


# --------------------------------------------------------------------------
# commands


_WITT_ARITY = {"add": 2, "mul": 2, "frob": 2, "ghost": 1, "teich": 1, "split": 1}


def _render(value, to_str=str) -> str:
    """to_str(value); an integer beyond Python's int-to-str limit is a domain violation."""
    try:
        return to_str(value)
    except ValueError as exc:
        raise DomainViolation(
            f"result too large to render: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


def _check_work(what: str, work: int, limit: int, spec: RingSpec, power: int) -> None:
    """Refuse a witt operation whose work, weighted by spec.width**power, exceeds limit."""
    if spec.width > 1:
        work *= spec.width**power
        what = f"{what} times payload width {spec.width}" + ("^2" if power == 2 else "")
    if work > limit:
        raise DomainViolation(f"{what} {work} exceeds the limit {limit}")


def cmd_witt(ns: argparse.Namespace) -> tuple[int, Output]:
    spec = parse_ring(ns.ring)
    op = ns.witt_op
    if len(ns.args) != _WITT_ARITY[op]:
        raise ParseError(f"witt {op} takes {_WITT_ARITY[op]} operand(s), got {len(ns.args)}")
    if op in ("add", "mul"):
        f = parse_witt_literal(ns.args[0], spec)
        g = parse_witt_literal(ns.args[1], spec)
        if op == "mul":
            a, b, c, d = f.num.degree, f.den.degree, g.num.degree, g.den.degree
            degree = max(a * c + b * d, a * d + b * c)
            _check_work("product degree", degree, MAX_PRODUCT_DEGREE, spec, 1)
        result = witt_add(f, g) if op == "add" else witt_mul(f, g)
        rendered = _render(result)
    elif op == "frob":
        if not ns.args[0].lstrip("-").isdigit():
            raise ParseError(f"witt frob needs an integer index, got {ns.args[0]!r}")
        n = _parse_int(ns.args[0])
        if n > MAX_FROBENIUS_INDEX:
            raise DomainViolation(f"Frobenius index {n} exceeds the limit {MAX_FROBENIUS_INDEX}")
        f = parse_witt_literal(ns.args[1], spec)
        degree = n * max(f.num.degree, f.den.degree)
        if degree > MAX_FROBENIUS_DEGREE:
            raise DomainViolation(
                f"Frobenius index times degree {degree} exceeds the limit {MAX_FROBENIUS_DEGREE}"
            )
        work = degree * max(f.num.degree, f.den.degree)
        _check_work("Frobenius index times degree squared", work, MAX_FROBENIUS_WORK, spec, 2)
        result = frobenius(n, f)
        rendered = _render(result)
    elif op == "ghost":
        if ns.precision > MAX_GHOST_PRECISION:
            raise DomainViolation(
                f"ghost precision {ns.precision} exceeds the limit {MAX_GHOST_PRECISION}"
            )
        f = parse_witt_literal(ns.args[0], spec)
        work = ns.precision * max(f.num.degree, f.den.degree)
        _check_work("ghost precision times degree", work, MAX_GHOST_WORK, spec, 2)
        rendered = _render(ghost(f, ns.precision))
    elif op == "teich":
        if not ns.args[0].lstrip("-").isdigit():
            raise ParseError(f"witt teich needs an integer, got {ns.args[0]!r}")
        a = RingElement.of(spec, _parse_int(ns.args[0]))
        rendered = _render(teichmuller(a))
    else:  # split
        f = parse_witt_literal(ns.args[0], spec)
        rendered = _render(split_counit(f))
    row = {"operation": op, "ring": str(spec), "inputs": list(ns.args), "result": rendered}
    out = Output(
        command="witt",
        config={"ring": str(spec), "operation": op},
        payload_key="rows",
        payload=[row],
        verdict="ok",
        text_lines=[rendered],
        csv_header=["operation", "ring", "result"],
        csv_rows=[[op, str(spec), rendered]],
    )
    return 0, out


def cmd_field(ns: argparse.Namespace) -> tuple[int, Output]:
    F = parse_field(ns)
    sub = ns.field_op
    if sub == "split":
        if ns.prime is None:
            raise ParseError("field split needs --prime")
        data = split_invariants(F, ns.prime)
        row = {
            "field": F.describe(),
            "prime": ns.prime,
            "f": data.residue_degree,
            "r": data.num_primes,
            "norm": data.norm,
            "artin_rep": data.artin_class.rep,
            "artin_modulus": data.artin_class.modulus,
        }
        norm = _render(data.norm)
        text = [
            f"f={data.residue_degree} r={data.num_primes} "
            f"artin={data.artin_class.rep} mod {data.artin_class.modulus} norm={norm}"
        ]
        header = ["field", "prime", "f", "r", "norm", "artin_rep"]
        rows = [[F.describe(), ns.prime, data.residue_degree, data.num_primes, data.norm, data.artin_class.rep]]
    elif sub == "conductor":
        c = conductor(F)
        row = {"field": F.describe(), "conductor": c}
        text = [str(c)]
        header = ["field", "conductor"]
        rows = [[F.describe(), c]]
    else:  # ramified
        R = sorted(ramified_set(F))
        row = {"field": F.describe(), "ramified": R}
        text = [" ".join(str(p) for p in R) if R else "(none)"]
        header = ["field", "ramified"]
        rows = [[F.describe(), " ".join(map(str, R))]]
    out = Output(
        command="field",
        config={"field": F.describe(), "operation": sub},
        payload_key="rows",
        payload=[row],
        verdict="ok",
        text_lines=text,
        csv_header=header,
        csv_rows=rows,
    )
    return 0, out


def cmd_linking(ns: argparse.Namespace) -> tuple[int, Output]:
    u = linking_hom(ns.prime, ns.level)
    out = Output(
        command="linking",
        config={"prime": ns.prime, "level": ns.level},
        payload_key="rows",
        payload=[{"prime": ns.prime, "level": ns.level, "value": u.value}],
        verdict="ok",
        text_lines=[str(u)],
        csv_header=["prime", "level", "value"],
        csv_rows=[[ns.prime, ns.level, u.value]],
    )
    return 0, out


def cmd_monodromy(ns: argparse.Namespace) -> tuple[int, Output]:
    if ns.level > MAX_BRIDGE_LEVEL:
        raise DomainViolation(f"monodromy level {ns.level} exceeds the limit {MAX_BRIDGE_LEVEL}")
    has_field = ns.quadratic is not None or ns.cyclotomic is not None
    if ns.side == "cc":
        if has_field:
            T = cc_fiber(parse_field(ns), ns.prime)
        else:
            T = cc_fiber_infinite_level(ns.prime, ns.level)
        dec = decompose(T)
        label_info = {}
    else:
        F = parse_field(ns)
        T = deninger_packet(F, ns.prime, ns.level)
        dec = decompose(T)
        labels = closed_orbit_labels(ns.prime, ns.level)
        label_info = {"labels": [lab.base_class for lab in labels]}
        if ns.level % conductor(F) == 0:  # label fibers need the character
            fib = packet_fibers(T)
            label_info["fiber_per_label"] = {
                "count": fib.count,
                "covering_degree": fib.covering_degree,
                **fib.length_fields(),
            }
    rows = [
        {
            "component": list(members),
            "size": dec.covering_degree,
            **dec.length_fields(),
        }
        for members in dec.components
    ]
    text = [
        f"side={ns.side} prime={ns.prime} group order {T.group.order} "
        f"monodromy {T.monodromy} mod {T.level}",
        f"components: {dec.count} of size {dec.covering_degree} "
        f"(length {dec.covering_degree}*log({dec.base_prime}) "
        f"~ {dec.circle_length_display():.6f} display-only)",
    ]
    for members in dec.components:
        text.append("  " + " ".join(str(m) for m in members))
    if "fiber_per_label" in label_info:
        fpl = label_info["fiber_per_label"]
        text.append(
            f"fiber over each of {len(label_info['labels'])} closed-orbit labels: "
            f"{fpl['count']} components of size {fpl['covering_degree']}"
        )
    payload = {
        "side": ns.side,
        "prime": ns.prime,
        "level": T.level,
        "monodromy": T.monodromy,
        "group_order": T.group.order,
        "components": rows,
        **label_info,
    }
    out = Output(
        command="monodromy",
        config={"side": ns.side, "prime": ns.prime, "level": ns.level},
        payload_key="report",
        payload=payload,
        verdict="ok",
        text_lines=text,
        csv_header=["component", "size"],
        csv_rows=[[" ".join(map(str, m)), dec.covering_degree] for m in dec.components],
    )
    return 0, out


def _reciprocity_pairs(bound: int) -> list[tuple[int, int]]:
    odd = [p for p in primes_below(bound) if p > 2]
    return [(p, q) for p in odd for q in odd if p != q]


def _check_max_prime(ns: argparse.Namespace) -> None:
    # 6 is the least bound below which two odd primes lie: the pair (3, 5)
    if ns.max_prime < 6:
        raise DomainViolation(f"--max-prime must be at least 6, got {ns.max_prime}")


def cmd_reciprocity(ns: argparse.Namespace) -> tuple[int, Output]:
    _check_max_prime(ns)
    rows = [reciprocity_row(p, q) for p, q in _reciprocity_pairs(ns.max_prime)]
    disagreements = [r for r in rows if not r.agree]
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
    text = [f"{'p':>4} {'q':>4} {'legendre':>9} {'cc':>3} {'den':>4} agree"]
    text += [
        f"{r.p:>4} {r.q:>4} {r.legendre:>9} {r.cc_count:>3} {r.deninger_count:>4} {str(r.agree).lower()}"
        for r in rows
    ]
    text.append(f"{len(rows)} rows, {len(disagreements)} disagreements")
    out = Output(
        command="reciprocity",
        config={"max_prime": ns.max_prime},
        payload_key="rows",
        payload=payload,
        verdict="pass" if not disagreements else "fail",
        text_lines=text,
        csv_header=["p", "q", "legendre", "cc_count", "deninger_count", "agree"],
        csv_rows=[[r.p, r.q, r.legendre, r.cc_count, r.deninger_count, r.agree] for r in rows],
    )
    return (0 if not disagreements else 3), out


def cmd_bridge(ns: argparse.Namespace) -> tuple[int, Output]:
    if ns.level > MAX_BRIDGE_LEVEL:
        raise DomainViolation(f"bridge level {ns.level} exceeds the limit {MAX_BRIDGE_LEVEL}")
    F = parse_field(ns)
    report = bridge_compare(F, ns.prime, ns.level, seed=ns.seed)
    doc = report.to_dict()
    text = [
        f"field {report.field_label}, prime {report.prime}, level {report.level} "
        f"(conductor {report.conductor})",
        f"cc side:       {report.cc_side.count} components of size {report.cc_side.covering_degree}",
        f"deninger side: {report.deninger_side.count} components of size "
        f"{report.deninger_side.covering_degree}",
        f"monodromy: cc {report.cc_monodromy.rep} mod {report.cc_monodromy.modulus}, "
        f"deninger {report.deninger_monodromy.rep} mod {report.deninger_monodromy.modulus} "
        f"-> match={str(report.monodromy_match).lower()}",
        f"psi p-part zero: {str(report.psi_zero_ok).lower()}; "
        + "; ".join(f"{name}: {str(ok).lower()}" for name, ok in report.equivariance_checks)
        + f"; anti-equivariance: {str(report.anti_equivariance).lower()}",
        f"match={str(report.match).lower()}",
    ]
    out = Output(
        command="bridge",
        config={"field": report.field_label, "prime": ns.prime, "level": ns.level, "seed": ns.seed},
        payload_key="report",
        payload=doc,
        verdict="pass" if report.match else "fail",
        text_lines=text,
        csv_header=["field", "prime", "level", "cc_count", "den_count", "cc_f", "den_f", "match"],
        csv_rows=[[
            report.field_label, ns.prime, ns.level,
            report.cc_side.count, report.deninger_side.count,
            report.cc_side.covering_degree, report.deninger_side.covering_degree,
            report.match,
        ]],
    )
    return (0 if report.match else 3), out


_SAMPLE_FLAGS = ("witt_samples", "descent_samples", "equivariance_cases", "roundtrip_samples")


def cmd_verify_all(ns: argparse.Namespace) -> tuple[int, Output]:
    # every limit is checked before any suite runs: a grid that is empty
    # would pass with 0 checks
    if ns.cyclotomic_bound < 1:
        raise DomainViolation(f"--cyclotomic-bound must be at least 1, got {ns.cyclotomic_bound}")
    _check_max_prime(ns)
    # a reduced cyclotomic bound is quick mode: scale the randomized suites
    # down too unless they were set explicitly
    defaults = VerifyConfig.quick() if ns.cyclotomic_bound < 40 else VerifyConfig()
    counts = {}
    for name in _SAMPLE_FLAGS:
        value = getattr(ns, name)
        if value is None:
            value = getattr(defaults, name)
        elif value < 1:
            raise DomainViolation(f"--{name.replace('_', '-')} must be at least 1, got {value}")
        counts[name] = value
    vcfg = VerifyConfig(
        seed=ns.seed,
        cyclotomic_bound=ns.cyclotomic_bound,
        max_prime=min(ns.max_prime, 50),
        reciprocity_prime_bound=ns.max_prime,
        **counts,
    )
    results = run_all(vcfg)
    all_pass = all(r.passed for r in results)
    payload = [
        {"suite": r.name, "passed": r.passed, "checks": r.checks, "failures": r.failures}
        for r in results
    ]
    text = [r.line() for r in results]
    text.append(f"verdict: {'pass' if all_pass else 'fail'}")
    out = Output(
        command="verify-all",
        config={
            "seed": vcfg.seed,
            "cyclotomic_bound": vcfg.cyclotomic_bound,
            "max_prime": vcfg.max_prime,
            "reciprocity_prime_bound": vcfg.reciprocity_prime_bound,
        },
        payload_key="rows",
        payload=payload,
        verdict="pass" if all_pass else "fail",
        text_lines=text,
        csv_header=["suite", "passed", "checks", "failures"],
        csv_rows=[[r.name, r.passed, r.checks, r.failures] for r in results],
    )
    return (0 if all_pass else 3), out


# --------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors -> exit 1, not argparse's 2
        raise ParseError(message)


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cyclotomic", type=int, default=None, metavar="N",
                   help="field inside the level-N cyclotomic field")
    p.add_argument("--subgroup", type=str, default=None, metavar="A,B,...",
                   help="generators of the fixing subgroup (with --cyclotomic)")
    p.add_argument("--quadratic", type=int, default=None, metavar="Q",
                   help="the quadratic field of the odd prime Q")


def build_parser() -> _Parser:
    parser = _Parser(prog="wittlink", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
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

    w = subs.add_parser("witt", help="rational Witt vector arithmetic", parents=[common])
    w.add_argument("witt_op", choices=("add", "mul", "frob", "ghost", "teich", "split"))
    w.add_argument("args", nargs="+", help="operands (polynomial or P/Q literals)")
    w.add_argument("--ring", default="Z", help="Z, Q, F<p>, Z<n> or C<n>")
    w.add_argument("-N", "--precision", type=int, default=8,
                   help=f"ghost component count (at most {MAX_GHOST_PRECISION})")

    f = subs.add_parser("field", help="abelian field invariants", parents=[common])
    f.add_argument("field_op", choices=("split", "conductor", "ramified"))
    _add_field_flags(f)
    f.add_argument("--prime", type=int, default=None)

    l = subs.add_parser("linking", help="level truncation of the linking homomorphism", parents=[common])
    l.add_argument("--prime", type=int, required=True)
    l.add_argument("--level", type=int, required=True)

    m = subs.add_parser("monodromy", help="decomposition tables for either side", parents=[common])
    m.add_argument("--side", choices=("cc", "deninger"), required=True)
    m.add_argument("--prime", type=int, required=True)
    m.add_argument("--level", type=int, required=True, help=f"at most {MAX_BRIDGE_LEVEL}")
    _add_field_flags(m)

    r = subs.add_parser("reciprocity", help="component-count table over odd prime pairs", parents=[common])
    r.add_argument("--max-prime", type=int, default=100)

    b = subs.add_parser("bridge", help="side-by-side fiber comparison report", parents=[common])
    _add_field_flags(b)
    b.add_argument("--prime", type=int, required=True)
    b.add_argument("--level", type=int, required=True, help=f"at most {MAX_BRIDGE_LEVEL}")

    v = subs.add_parser("verify-all", help="run every acceptance suite", parents=[common])
    v.add_argument("--cyclotomic-bound", type=int, default=40)
    v.add_argument("--max-prime", type=int, default=100)
    v.add_argument("--witt-samples", type=int, default=None,
                   help="random vectors for the ring-law suite (default 200, quick 40)")
    v.add_argument("--descent-samples", type=int, default=None)
    v.add_argument("--equivariance-cases", type=int, default=None)
    v.add_argument("--roundtrip-samples", type=int, default=None)
    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "witt":
            code, out = cmd_witt(ns)
        elif ns.command == "field":
            code, out = cmd_field(ns)
        elif ns.command == "linking":
            code, out = cmd_linking(ns)
        elif ns.command == "monodromy":
            code, out = cmd_monodromy(ns)
        elif ns.command == "reciprocity":
            code, out = cmd_reciprocity(ns)
        elif ns.command == "bridge":
            code, out = cmd_bridge(ns)
        else:
            code, out = cmd_verify_all(ns)
        _emit(out, ns.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
