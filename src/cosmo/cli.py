"""Command-line front end.

Commands
--------
dedekind          exact Dedekind sum s(p, q)
conway            Conway polynomial of a diagram (PD file or braid word)
lambda            Casson-Walker value of surgery on a 2-component link
tau               Casson-Gordon value of p/q surgery on a knot
obstruct-purely   purely cosmetic surgery tests (three modes, see flags)
obstruct-chirally chirally cosmetic surgery tests (two modes)
pretzel           candidate analysis for the (2a+1, 2b, 2b) pretzel family
selftest          deterministic closed-form / oracle equivalence checks

Output is plain text by default; ``--format json`` emits a deterministic
JSON document in which every exact rational appears as a "num/den" string
(evidence values drop a denominator of 1) and integers are JSON numbers.
Library errors exit with code 2 and a single ``error: ...`` line on stderr;
selftest failures exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import Slope, dedekind_sum_fast, dedekind_sum_naive
from .casson_walker import (
    SurgeryResult,
    casson_boyer_lines,
    casson_walker_link_surgery,
    lambda_w_from_lambda,
)
from .links import (
    ConwayPoly,
    LinkSurgeryInvariants,
    braid_closure,
    conway_polynomial,
    invariants_from_diagram,
    linking_number,
    parse_pd,
    pretzel_a3_closed_form,
    pretzel_diagram,
    torus2_diagram,
)
from .obstructions import (
    ObstructionReport,
    chirally_cosmetic_obstruction,
    chirally_cosmetic_obstruction_ihs,
    pretzel_analysis,
    purely_cosmetic_candidates_ihs,
    purely_cosmetic_obstruction_bl,
    purely_cosmetic_obstruction_thm4,
    purely_cosmetic_quadratic,
)
from .seifert import (
    SeifertMatrix,
    casson_gordon_tau,
    conway_from_seifert,
    parse_seifert_matrix,
    seifert_torus2,
)

__all__ = ["Command", "parse_args", "run", "emit_json", "main"]


@dataclass(frozen=True)
class Command:
    name: str
    options: dict


def _slope(text: str) -> Slope:
    try:
        return Slope.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmo",
        description="Exact surgery invariants and cosmetic-surgery obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = with_format(sub.add_parser("dedekind", help="exact Dedekind sum s(p, q)"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = with_format(sub.add_parser("conway", help="Conway polynomial of a link diagram"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pd", metavar="FILE", help="diagram file, X/C line format")
    src.add_argument("--braid", type=_int_list, metavar="WORD", help="braid word, e.g. 1,1,1")
    p.add_argument("--strands", type=int, default=None, help="strand count for --braid")

    p = with_format(sub.add_parser("lambda", help="Casson-Walker value of a 2-component surgery"))
    p.add_argument("--lk", type=int, required=True)
    p.add_argument("--a2x", type=int, required=True)
    p.add_argument("--a2y", type=int, required=True)
    p.add_argument("--a3", type=int, required=True)
    p.add_argument("--sx", type=_slope, required=True)
    p.add_argument("--sy", type=_slope, required=True)

    p = with_format(sub.add_parser("tau", help="Casson-Gordon value of p/q surgery on a knot"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", metavar="FILE", help="Seifert matrix file: size line, then rows")
    src.add_argument("--torus2", type=int, metavar="N", help="catalog (2, N) torus knot")
    src.add_argument("--unknot", action="store_true")
    p.add_argument("--slope", type=_slope, required=True)

    p = with_format(sub.add_parser("obstruct-purely", help="purely cosmetic surgery tests"))
    p.add_argument("--delta2", type=int, help="Alexander second derivative at 1 (knot test)")
    p.add_argument("--a2", type=int, help="a2 of the knotted component (framing-family test)")
    p.add_argument("--q0", type=int, help="framing denominator (framing-family test)")
    p.add_argument("--a3", type=int, help="a3 of the link (shared by two modes)")
    p.add_argument("--a2x", type=int, help="a2 of the surgered component (candidate test)")
    p.add_argument("--a2y", type=int, help="a2 of the framed component (candidate test)")
    p.add_argument("--lk", type=int, default=0, help="linking number (candidate test, must be 0)")
    p.add_argument("--s0", type=_slope, help="framing slope of the second component (candidate test)")

    p = with_format(sub.add_parser("obstruct-chirally", help="chirally cosmetic surgery tests"))
    p.add_argument("--lambda-w", dest="lambda_w", type=_rational, help="ambient Casson-Walker value")
    p.add_argument("--a2", type=int, help="a2 of the framed knot (framing-family test)")
    p.add_argument("--p0", type=int, help="integer framing coefficient (framing-family test)")

    p = with_format(sub.add_parser("pretzel", help="candidate analysis for the pretzel family"))
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--slope", type=_slope, required=True)

    sub.add_parser("selftest", help="deterministic closed-form / oracle checks")
    return parser


# A negative rational or a comma-separated list of rationals that starts with
# a minus sign, like -1/2 or -1,2,-1.  Passed as a separate token, argparse
# would read it as an unknown option; plain numbers like -1 it already takes
# as values, so the lookahead asks for a "/" or ",".
_NEGATIVE_VALUE = re.compile(r"(?=.*[/,])-\d+(/-?\d+)?(,-?\d+(/-?\d+)?)*")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Glue each negative-value token to the long option just before it."""
    merged: list[str] = []
    for tok in argv:
        prev = merged[-1] if merged else ""
        if prev.startswith("--") and prev != "--" and "=" not in prev and _NEGATIVE_VALUE.fullmatch(tok):
            merged[-1] = f"{prev}={tok}"
        else:
            merged.append(tok)
    return merged


def _link_invariants(opt) -> LinkSurgeryInvariants:
    return LinkSurgeryInvariants(a2_x=opt["a2x"], a2_y=opt["a2y"], a3=opt["a3"], lk=opt["lk"])


# Obstruction modes: command -> mode -> (the options that select it, its
# library call).  The calls look library functions up when they run, so a
# rebound module name reaches them.
_MODES = {
    "obstruct-purely": {
        "bl": (("delta2",), lambda o: purely_cosmetic_obstruction_bl(o["delta2"])),
        "thm4": (("a2", "q0", "a3"), lambda o: purely_cosmetic_obstruction_thm4(o["a2"], o["q0"], o["a3"])),
        "quad": (("a2x", "a2y", "a3", "s0"), lambda o: purely_cosmetic_quadratic(_link_invariants(o), o["s0"])),
    },
    "obstruct-chirally": {
        "ihs": (("lambda_w",), lambda o: chirally_cosmetic_obstruction_ihs(o["lambda_w"])),
        "family": (("a2", "p0"), lambda o: chirally_cosmetic_obstruction(o["a2"], o["p0"])),
    },
}


def parse_args(argv: list[str] | None = None) -> Command:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    options = vars(parser.parse_args(_merge_negative_values(argv)))
    name = options.pop("command")
    modes = _MODES.get(name)
    if modes:
        # the mode whose options are all given, with no other mode's option
        given = {k for flags, _ in modes.values() for k in flags if options[k] is not None}
        picked = [mode for mode, (flags, _) in modes.items() if given == set(flags)]
        if not picked:
            usage = " | ".join(
                " ".join("--" + k.replace("_", "-") for k in flags) for flags, _ in modes.values()
            )
            parser.error(f"{name} needs exactly one mode: {usage}")
        options["mode"] = picked[0]
    return Command(name=name, options=options)


# ---------------------------------------------------------------------------
# serialization


def _frac_full(v) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _frac_short(v) -> str:
    return str(Fraction(v))


def _json_payload(obj):
    if isinstance(obj, SurgeryResult):
        return {
            "lambda_w": _frac_full(obj.lambda_w),
            "D": _frac_full(obj.D),
            "sigma": obj.sigma,
            "lambda": _frac_full(obj.lambda_),
        }
    if isinstance(obj, ObstructionReport):
        return {
            "verdict": obj.verdict,
            "candidates": None if obj.candidates is None else list(obj.candidates),
            "evidence": {name: _frac_short(value) for name, value in obj.evidence},
            "narrative": obj.narrative,
        }
    if isinstance(obj, ConwayPoly):
        coeffs = obj.coefficients
        return {"coefficients": {str(e): coeffs[e] for e in sorted(coeffs)}}
    if isinstance(obj, dict):
        return obj
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def emit_json(obj) -> str:
    return json.dumps(_json_payload(obj), indent=2)


def _text_surgery(r: SurgeryResult) -> str:
    return "\n".join(
        [
            f"lambda_w = {_frac_short(r.lambda_w)}",
            f"lambda   = {_frac_short(r.lambda_)}",
            f"D        = {_frac_short(r.D)}",
            f"sigma    = {r.sigma}",
        ]
    )


def _text_report(r: ObstructionReport) -> str:
    if r.candidates is None:
        cand = "not applicable"
    elif not r.candidates:
        cand = "(none)"
    else:
        cand = ", ".join(str(c) for c in r.candidates)
    lines = [f"verdict: {r.verdict}", f"candidates: {cand}"]
    if r.evidence:
        lines.append("evidence:")
        width = max(len(name) for name, _ in r.evidence)
        lines += [f"  {name.ljust(width)} = {_frac_short(v)}" for name, v in r.evidence]
    lines.append(f"narrative: {r.narrative}")
    return "\n".join(lines)


def _text_conway(p: ConwayPoly) -> str:
    lines = [f"nabla = {p}"]
    coeffs = p.coefficients
    lines += [f"a{e} = {coeffs[e]}" for e in sorted(coeffs)]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command handlers


def _run_dedekind(opt):
    p, q = opt["p"], opt["q"]
    value = dedekind_sum_fast(p, q)
    symbol = 12 * (1 if q > 0 else -1) * value
    payload = {"p": p, "q": q, "sum": _frac_full(value), "symbol": _frac_full(symbol)}
    return payload, f"s({p},{q}) = {_frac_short(value)}"


def _load_diagram(opt):
    if opt.get("pd"):
        with open(opt["pd"], encoding="utf-8") as fh:
            return parse_pd(fh.read())
    return braid_closure(opt["braid"], opt["strands"])


def _load_matrix(opt) -> SeifertMatrix:
    if opt.get("matrix"):
        with open(opt["matrix"], encoding="utf-8") as fh:
            m = parse_seifert_matrix(fh.read())
        # tau is defined for knots; the constant Conway coefficient is det(S - S^T)
        det = conway_from_seifert(m).coefficient(0)
        if det != 1:
            raise ValueError(f"not a knot Seifert matrix: det(S - S^T) = {det}, expected 1")
        return m
    if opt.get("torus2") is not None:
        return seifert_torus2(opt["torus2"])
    return SeifertMatrix([])


def _run_tau(opt):
    slope = opt["slope"]
    value = casson_gordon_tau(_load_matrix(opt), slope)
    return {"p": slope.p, "q": slope.q, "tau": _frac_full(value)}, f"tau = {_frac_short(value)}"


def _selftest_checks():
    yield (
        "dedekind closed form, p up to 200",
        lambda: all(
            dedekind_sum_fast(1, p) == Fraction((p - 1) * (p - 2), 12 * p)
            for p in range(1, 201)
        ),
    )
    yield (
        "dedekind reciprocity on a fixed grid",
        lambda: all(
            dedekind_sum_fast(h, k) + dedekind_sum_fast(k, h)
            == Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            for h, k in [(1, 2), (3, 7), (5, 12), (8, 13), (25, 36), (99, 100)]
        ),
    )
    yield (
        "fast and direct Dedekind sums agree",
        lambda: all(
            dedekind_sum_fast(p, q) == dedekind_sum_naive(p, q)
            for p, q in [(2, 9), (5, 17), (13, 30), (7, 100), (41, 99)]
        ),
    )
    yield (
        "trefoil Conway polynomial, both routes",
        lambda: conway_polynomial(torus2_diagram(3))
        == conway_from_seifert(seifert_torus2(3))
        == ConwayPoly({0: 1, 2: 1}),
    )
    yield (
        "pretzel diagram matches its closed form",
        lambda: (
            invariants_from_diagram(pretzel_diagram(1, 1)).a3
            == pretzel_a3_closed_form(1, 1)
            == -2
            and linking_number(pretzel_diagram(1, 1), 0, 1) == 0
        ),
    )
    yield (
        "lens space surgery values",
        lambda: (
            casson_walker_link_surgery(
                LinkSurgeryInvariants(0, 0, 0, 0), Slope(3, 1), Slope(1, 1)
            ).lambda_w
            == Fraction(-1, 18)
            and casson_walker_link_surgery(
                LinkSurgeryInvariants(0, 0, 0, 0), Slope(2, 1), Slope(1, 1)
            ).lambda_w
            == 0
        ),
    )
    yield (
        "link formula meets knot formula on a split unknot",
        lambda: casson_walker_link_surgery(
            LinkSurgeryInvariants(1, 0, 0, 0), Slope(5, 3), Slope(1, 1)
        ).lambda_w
        == lambda_w_from_lambda(casson_boyer_lines(Fraction(0), 2, Slope(5, 3))),
    )
    yield ("candidate slopes derive to {1, 2}", lambda: purely_cosmetic_candidates_ihs() == {1, 2})
    yield (
        "chirally cosmetic verdicts across framings",
        lambda: (
            all(
                chirally_cosmetic_obstruction(0, p0).verdict == "obstructed"
                for p0 in range(3, 101)
            )
            and chirally_cosmetic_obstruction(0, 1).verdict == "inconclusive"
            and chirally_cosmetic_obstruction(0, 2).verdict == "inconclusive"
        ),
    )
    yield (
        "surgery tau values",
        lambda: (
            casson_gordon_tau(seifert_torus2(3), Slope(2, 1)) == 2
            and casson_gordon_tau(SeifertMatrix([]), Slope(7, 3))
            == -28 * dedekind_sum_fast(3, 7)
            and casson_gordon_tau(SeifertMatrix([[-10831, -7463], [-7464, -5143]]), Slope(5, 1)) == 4
        ),
    )
    yield (
        "pretzel candidate analysis at negative framing",
        lambda: (
            pretzel_analysis(1, 1, Slope(-1, 1)).verdict == "obstructed"
            and dict(pretzel_analysis(1, 1, Slope(-1, 1)).evidence)["discriminant"] == -191
        ),
    )


def _run_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            passed = check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"{'ok  ' if passed else 'FAIL'} - {name}")
        failures += 0 if passed else 1
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


# Each reporting command returns a library value, rendered by its type, or
# a (JSON payload, text line) pair of its own.
_HANDLERS = {
    "dedekind": _run_dedekind,
    "conway": lambda o: conway_polynomial(_load_diagram(o)),
    "lambda": lambda o: casson_walker_link_surgery(_link_invariants(o), o["sx"], o["sy"]),
    "tau": _run_tau,
    "pretzel": lambda o: pretzel_analysis(o["a"], o["b"], o["slope"]),
}
_TEXT = {SurgeryResult: _text_surgery, ObstructionReport: _text_report, ConwayPoly: _text_conway}


def run(cmd: Command) -> int:
    opt = cmd.options
    if cmd.name == "selftest":
        return _run_selftest()
    handler = _MODES[cmd.name][opt["mode"]][1] if cmd.name in _MODES else _HANDLERS[cmd.name]
    result = handler(opt)
    payload, text = result if isinstance(result, tuple) else (result, _TEXT[type(result)](result))
    print(emit_json(payload) if opt["format"] == "json" else text)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        cmd = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(cmd)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
