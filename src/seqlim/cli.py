"""Command-line surface: evaluate families, guess recurrences, compute and
recognize limits, run conjecture sweeps, and convert continued fractions.

Exit codes: 0 success, 1 computation or verification failure, 2 usage error.
Reports go to stdout (plain text, or JSON with ``--json``; every number in
the JSON is a string so exact values survive the round trip); errors go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from seqlim import __version__
from seqlim.arith import poly_to_text
from seqlim.contfrac import (
    ContinuedFraction,
    arctan_cf,
    cf_from_text,
    cf_to_text,
    convergents,
    from_recurrence,
    log_cf,
)
from seqlim.limits import (
    apery_limit,
    franel_secondary,
    solve_vanishing_init,
)
from seqlim.recognize import CATALOG_NAMES, recognize_constant
from seqlim.recurrence import (
    InitialConditions,
    InsufficientTerms,
    Recurrence,
    SolutionTable,
    guess_recurrence,
    guess_window,
    recurrence_from_text,
    recurrence_to_text,
)
from seqlim.sums import (
    FamilySpec,
    InvalidParameter,
    arctan_recurrence,
    eval_family,
    family_recurrence,
    family_terms,
    guessed_family_recurrence,
)
from seqlim.arith import ratfunc_from_text


class UsageError(Exception):
    pass


class ComputationFailed(Exception):
    pass


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return render_json({
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "diagnostics": self.diagnostics,
            "version": __version__,
        })

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        for label, box in (("input", self.inputs), ("result", self.results),
                           ("diag", self.diagnostics)):
            for key, value in box.items():
                lines.append(f"{label} {key}: {_flat(value)}")
        return "\n".join(lines) + "\n"


def _flat(value):
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_flat(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def render_json(obj) -> str:
    """Canonical JSON rendering; parsing and re-rendering is byte-identical."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _emit(report: Report, as_json: bool):
    sys.stdout.write(report.to_json() if as_json else report.to_text())


# ----------------------------------------------------------------------
# Argument helpers
# ----------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})")


def _family_spec(args) -> FamilySpec:
    try:
        return FamilySpec(args.family, d=args.d,
                          x=None if args.x is None else _fraction(args.x),
                          symbolic_x=getattr(args, "symbolic_x", False))
    except InvalidParameter as exc:
        raise UsageError(str(exc))


def _parse_rec_spec(spec: str) -> tuple[Recurrence, dict, str]:
    """Named recurrence (with parameters) or @file in the text format."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return recurrence_from_text(fh.read()), {}, spec
    name, _, params = spec.partition(":")
    kv = {}
    if params:
        for part in params.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise UsageError(f"malformed recurrence parameter {part!r}")
            kv[key] = value
    if name == "delannoy":
        return family_recurrence(FamilySpec("delannoy")), {}, spec
    if name == "apery3":
        return family_recurrence(FamilySpec("apery3")), {}, spec
    if name == "delannoy_x":
        if "x" not in kv:
            raise UsageError("delannoy_x needs x=P/Q")
        x = _fraction(kv["x"])
        return family_recurrence(FamilySpec("delannoy_x", x=x)), {"x": x}, spec
    if name == "arctan":
        if "x" not in kv:
            raise UsageError("arctan needs x=P/Q")
        x = _fraction(kv["x"])
        if x == Fraction(1, 2):
            return arctan_recurrence(), {"x": x}, spec
        return family_recurrence(FamilySpec("trinomial_x", x=x)), {"x": x}, spec
    if name == "franel":
        if "d" not in kv:
            raise UsageError("franel needs d=D")
        d = int(kv["d"])
        return guessed_family_recurrence(FamilySpec("franel", d=d)), {"d": d}, spec
    raise UsageError(f"unknown recurrence spec {spec!r}")


def _solution_pair(args) -> tuple[SolutionTable, SolutionTable, Recurrence, str]:
    rec, params, spec = _parse_rec_spec(args.rec)
    if args.init_a:
        vals = [_fraction(v) for v in args.init_a.split(",")]
        primary = SolutionTable(rec, InitialConditions(args.init_a_start, vals))
    elif args.rec.startswith("@"):
        raise UsageError("file recurrences need explicit --init-a")
    elif args.rec.startswith("franel"):
        d = params["d"]
        primary = SolutionTable(rec, InitialConditions(
            0, family_terms(FamilySpec("franel", d=d), rec.order - 1)))
    elif rec.offset <= -1:
        primary = SolutionTable(rec, InitialConditions(-1, [0, 1]))
    else:
        name = {"delannoy_x": "delannoy_x", "arctan": "trinomial_x"}[args.rec.split(":")[0]]
        primary = SolutionTable(rec, InitialConditions(
            0, family_terms(FamilySpec(name, x=params["x"]), rec.order - 1)))
    if args.init_b:
        vals = [_fraction(v) for v in args.init_b.split(",")]
        secondary = SolutionTable(rec, InitialConditions(args.init_b_start, vals))
    elif args.rec.startswith("franel"):
        secondary = franel_secondary(params["d"], rec.order, rec=rec)
    else:
        if rec.order != 2:
            raise UsageError(
                f"{spec} has a recurrence of order {rec.order}; the default "
                "secondary solution needs order 2, so pass --init-b")
        secondary = SolutionTable(rec, InitialConditions(0, [0, 1]))
    return primary, secondary, rec, spec


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_family(args) -> Report:
    spec = _family_spec(args)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    report = Report("family")
    report.inputs = {"family": spec.name, "n": str(args.n)}
    if spec.d is not None:
        report.inputs["d"] = str(spec.d)
    if spec.x is not None:
        report.inputs["x"] = str(spec.x)
    if spec.symbolic_x:
        report.inputs["symbolic_x"] = "true"
        report.results["terms"] = [poly_to_text(eval_family(spec, n), var="x")
                                   for n in range(args.n + 1)]
    else:
        report.results["terms"] = [str(eval_family(spec, n)) for n in range(args.n + 1)]
    return report


def cmd_guess(args) -> Report:
    report = Report("guess")
    if bool(args.terms_from) == bool(args.terms_file):
        raise UsageError("give exactly one of --terms-from or --terms-file")
    if args.max_order < 1 or args.max_degree < 0:
        raise UsageError("--max-order must be >= 1 and --max-degree >= 0")
    needed = (args.max_order + 1) * (args.max_degree + 1) + args.max_order + 15
    count = args.n_terms or needed
    if args.terms_from:
        spec = _family_spec(argparse.Namespace(
            family=args.terms_from, d=args.d, x=args.x, symbolic_x=False))
        terms = family_terms(spec, count - 1)
        report.inputs["terms_from"] = args.terms_from
    else:
        with open(args.terms_file, "r", encoding="utf-8") as fh:
            terms = [Fraction(tok) for tok in fh.read().split()]
        report.inputs["terms_file"] = args.terms_file
    report.inputs["terms"] = str(len(terms))
    report.inputs["max_order"] = str(args.max_order)
    report.inputs["max_degree"] = str(args.max_degree)
    try:
        rec = guess_recurrence(terms, args.max_order, args.max_degree)
    except InsufficientTerms as exc:
        raise UsageError(str(exc))
    if rec is None:
        raise ComputationFailed("no recurrence found within the given bounds")
    holdout = len(terms) - rec.order - guess_window(len(terms), rec.order, args.max_degree)[1]
    report.results["recurrence"] = recurrence_to_text(rec)
    report.results["order"] = str(rec.order)
    report.results["degree"] = str(max(c.degree for c in rec.coeffs))
    report.diagnostics["holdout_checked"] = str(max(holdout, 0))
    return report


def cmd_limit(args) -> Report:
    report = Report("limit")
    if args.digits < 10:
        raise UsageError("--digits must be >= 10")
    names = args.recognize.split(",") if args.recognize else []
    if any(n not in CATALOG_NAMES for n in names):
        raise UsageError(f"unknown constant in {args.recognize!r}; known: {', '.join(CATALOG_NAMES)}")
    if len(set(names)) < len(names):
        raise UsageError(f"repeated constant in {args.recognize!r}; a basis needs distinct names")
    if names and args.digits < 10 * (len(names) + 1):
        raise UsageError(f"--digits must be >= {10 * (len(names) + 1)} to recognize "
                         f"over {len(names)} basis constants")
    primary, secondary, rec, spec = _solution_pair(args)
    scale = _fraction(args.scale) if args.scale else Fraction(1)
    report.inputs = {"rec": spec, "digits": str(args.digits), "scale": str(scale)}
    started = time.perf_counter()
    try:
        conv = apery_limit(primary, secondary, args.digits + 8)
    except Exception as exc:
        raise ComputationFailed(f"limit extraction failed: {exc}")
    estimate = conv.limit_estimate * scale
    certified = conv.certified_digits
    report.results["limit_decimal"] = estimate.str_digits(certified)
    report.results["certified_digits"] = str(certified)
    report.diagnostics["terms_used"] = str(conv.terms_used)
    report.diagnostics["difference_ratio"] = conv.difference_ratio.str_digits(12)
    report.diagnostics["digit_agreement"] = [f"{n}:{d}" for n, d in conv.digit_agreement]
    report.diagnostics["elapsed_seconds"] = f"{time.perf_counter() - started:.3f}"
    if names:
        form = recognize_constant(estimate, names)
        if form is None:
            raise ComputationFailed(
                f"limit not recognized over basis {args.recognize}")
        report.results["recognized"] = str(form)
        report.results["recognized_terms"] = {n: str(q) for n, q in form.terms}
        report.results["residual"] = f"{float(form.residual.val):.3e}"
    return report


_FRANEL_KILLS = {3: [], 4: [], 5: ["zeta2"], 6: ["zeta2"],
                 7: ["zeta2", "zeta6"], 8: ["zeta2", "zeta6"],
                 9: ["zeta2", "zeta6", "zeta8"], 10: ["zeta2", "zeta6", "zeta8"]}


def cmd_conjecture(args) -> Report:
    report = Report("conjecture")
    lo, _, hi = args.d_range.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise UsageError(f"bad --d-range {args.d_range!r}; use LO..HI")
    if args.digits < 10:
        raise UsageError("--digits must be >= 10")
    if args.name == "franel-zeta2" and not 3 <= lo <= hi <= 10:
        raise UsageError("franel-zeta2 supports d in 3..10")
    if args.name == "franel-zeta4" and not 5 <= lo <= hi <= 10:
        raise UsageError("franel-zeta4 supports d in 5..10")
    report.inputs = {"name": args.name, "d_range": f"{lo}..{hi}",
                     "digits": str(args.digits)}
    failures = []
    for d in range(lo, hi + 1):
        started = time.perf_counter()
        verdict = {}
        rec = guessed_family_recurrence(FamilySpec("franel", d=d))
        verdict["order"] = str(rec.order)
        verdict["order_expected"] = str((d + 1) // 2)
        ok = rec.order == (d + 1) // 2
        if args.name == "franel-zeta2":
            primary = SolutionTable(rec, InitialConditions(
                0, family_terms(FamilySpec("franel", d=d), rec.order - 1)))
            secondary = franel_secondary(d, rec.order, rec=rec)
            verdict["secondary_init"] = [str(secondary.term(i)) for i in range(rec.order)]
            conv = apery_limit(primary, secondary, args.digits)
            form = recognize_constant(conv.limit_estimate, ["zeta2"])
            expected = Fraction(1, d + 1)
            got = dict(form.terms)["zeta2"] if form else None
            verdict["limit"] = conv.limit_estimate.str_digits(min(args.digits, conv.certified_digits))
            verdict["recognized"] = str(form) if form else "none"
            verdict["expected"] = f"{expected}*zeta2"
            verdict["digits"] = str(conv.certified_digits)
            ok = ok and form is not None and got == expected
        else:
            a_init = family_terms(FamilySpec("franel", d=d), rec.order - 1)
            try:
                solved = solve_vanishing_init(rec, a_init, "zeta4",
                                              _FRANEL_KILLS[d], args.digits)
            except Exception as exc:
                verdict["error"] = str(exc)
                solved = None
            if solved is not None:
                lam_expected = Fraction(3 * (5 * d + 2), (d + 1) * (d + 2) * (d + 3))
                verdict["free_values"] = [str(v) for v in solved.free_values]
                verdict["lambda"] = str(solved.multiple)
                verdict["lambda_expected"] = str(lam_expected)
                verdict["limit"] = solved.limit_value.str_digits(args.digits)
                ok = ok and solved.multiple == lam_expected
            else:
                ok = False
        verdict["elapsed_seconds"] = f"{time.perf_counter() - started:.3f}"
        verdict["pass"] = "true" if ok else "false"
        report.results[f"d={d}"] = verdict
        if not ok:
            failures.append(d)
    report.results["overall"] = "pass" if not failures else f"fail at d={failures}"
    if failures:
        raise ComputationFailed(f"conjecture verification failed for d in {failures}")
    return report


def _parse_cf_spec(spec: str) -> ContinuedFraction:
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return cf_from_text(fh.read())
    name, _, params = spec.partition(":")
    kv = dict(part.partition("=")[::2] for part in params.split(",")) if params else {}
    if name == "log":
        return log_cf(_fraction(kv.get("x", "1")))
    if name == "arctan":
        return arctan_cf(_fraction(kv.get("z", "1")))
    raise UsageError(f"unknown continued-fraction spec {spec!r}")


def cmd_cf(args) -> Report:
    report = Report("cf")
    if bool(args.cf) == bool(args.from_rec):
        raise UsageError("give exactly one of --cf or --from-rec")
    if args.cf:
        cf = _parse_cf_spec(args.cf)
        report.inputs = {"cf": args.cf, "n": str(args.n)}
        vals = convergents(cf, args.n)
        report.results["convergents"] = [str(v) for v in vals]
    else:
        rec, _, spec = _parse_rec_spec(args.from_rec)
        rescaling = ratfunc_from_text(args.rescale) if args.rescale else None
        cf = from_recurrence(rec, rescaling)
        report.inputs = {"from_rec": spec,
                         "rescale": args.rescale or "auto"}
        report.results["cf"] = cf_to_text(cf)
        if args.n:
            report.results["convergents"] = [str(v) for v in convergents(cf, args.n)]
    return report


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlim",
        description="exact binomial sums, recurrence guessing, and limit recognition")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("family", help="print exact family terms")
    p.add_argument("--family", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--x")
    p.add_argument("--symbolic-x", action="store_true", dest="symbolic_x")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_family)

    p = sub.add_parser("guess", help="guess a recurrence from terms")
    p.add_argument("--terms-from")
    p.add_argument("--terms-file")
    p.add_argument("--d", type=int)
    p.add_argument("--x")
    p.add_argument("--n-terms", type=int)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_guess)

    p = sub.add_parser("limit", help="compute and recognize a quotient limit")
    p.add_argument("--rec", required=True)
    p.add_argument("--init-a")
    p.add_argument("--init-a-start", type=int, default=0)
    p.add_argument("--init-b")
    p.add_argument("--init-b-start", type=int, default=0)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--recognize")
    p.add_argument("--scale")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_limit)

    p = sub.add_parser("conjecture", help="verify a power-sum family conjecture")
    p.add_argument("--name", required=True, choices=["franel-zeta2", "franel-zeta4"])
    p.add_argument("--d-range", required=True)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_conjecture)

    p = sub.add_parser("cf", help="continued fractions and conversions")
    p.add_argument("--cf")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--from-rec")
    p.add_argument("--rescale")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_cf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain errors from the library
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
