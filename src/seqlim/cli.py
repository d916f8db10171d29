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
    POWER_SUMS,
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
    FAMILIES,
    FamilySpec,
    InvalidParameter,
    eval_family,
    family_recurrence,
    family_terms,
    guessed_family_recurrence,
    primary_init,
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


def _parse_spec(text: str, known: dict[str, tuple[str, ...]]) -> tuple[str, dict[str, str]]:
    """Split ``name:key=value,...`` into the name and its parameters.

    ``known`` maps each accepted name to the keys it takes.  Any other
    name, an unknown or repeated key, or an empty value is a usage error.
    """
    name, _, params = text.partition(":")
    if name not in known:
        raise UsageError(f"unknown name {name!r} in {text!r}; known: {', '.join(known)}")
    kv = {}
    for part in params.split(",") if params else ():
        key, _, value = part.partition("=")
        if key not in known[name] or key in kv or not value:
            raise UsageError(f"unknown, repeated or empty parameter {part!r} in {text!r}")
        kv[key] = value
    return name, kv


#: --rec and --from-rec names that differ from the catalog family they denote.
_REC_ALIASES = {"arctan": "trinomial_x"}


def _rec_family(text: str) -> FamilySpec | None:
    """The catalog family a named recurrence denotes; None for an @file."""
    if text.startswith("@"):
        return None
    name, kv = _parse_spec(text, dict.fromkeys([*FAMILIES, *_REC_ALIASES], ("d", "x")))
    try:
        return FamilySpec(_REC_ALIASES.get(name, name),
                          d=int(kv["d"]) if "d" in kv else None,
                          x=_fraction(kv["x"]) if "x" in kv else None)
    except ValueError as exc:  # a non-integer d, or an InvalidParameter
        raise UsageError(f"{exc} (in {text!r})")


def _recurrence(text: str, family: FamilySpec | None) -> Recurrence:
    """The family's recurrence, or the one in the @file ``text`` names."""
    if family is not None:
        return family_recurrence(family)
    with open(text[1:], "r", encoding="utf-8") as fh:
        return recurrence_from_text(fh.read())


def _initial(values: str, start: int) -> InitialConditions:
    return InitialConditions(start, [_fraction(v) for v in values.split(",")])


def _solution_pair(args) -> tuple[SolutionTable, SolutionTable]:
    family = _rec_family(args.rec)
    power_sum_b = not args.init_b and family is not None and family.name == "franel"
    if power_sum_b and family.d not in POWER_SUMS:
        raise UsageError(f"franel without --init-b supports d in "
                         f"{min(POWER_SUMS)}..{max(POWER_SUMS)}")
    rec = _recurrence(args.rec, family)
    if args.init_a:
        primary = SolutionTable(rec, _initial(args.init_a, args.init_a_start))
    elif family is None:
        raise UsageError("file recurrences need explicit --init-a")
    else:
        primary = SolutionTable(rec, primary_init(family, rec))
    if args.init_b:
        secondary = SolutionTable(rec, _initial(args.init_b, args.init_b_start))
    elif power_sum_b:
        secondary = franel_secondary(family.d, rec.order, rec=rec)
    elif rec.order != 2:
        raise UsageError(
            f"{args.rec} has a recurrence of order {rec.order}; the default "
            "secondary solution needs order 2, so pass --init-b")
    else:
        secondary = SolutionTable(rec, InitialConditions(0, [0, 1]))
    return primary, secondary


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
    if args.n_terms is not None and args.n_terms < 1:
        raise UsageError("--n-terms must be >= 1")
    needed = (args.max_order + 1) * (args.max_degree + 1) + args.max_order + 15
    count = needed if args.n_terms is None else args.n_terms
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
    primary, secondary = _solution_pair(args)
    scale = _fraction(args.scale) if args.scale else Fraction(1)
    report.inputs = {"rec": args.rec, "digits": str(args.digits), "scale": str(scale)}
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


def cmd_conjecture(args) -> Report:
    report = Report("conjecture")
    lo, _, hi = args.d_range.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise UsageError(f"bad --d-range {args.d_range!r}; use LO..HI")
    if args.digits < 10:
        raise UsageError("--digits must be >= 10")
    # franel-zeta4 needs a tertiary solution: the d that have constants to cancel
    supported = [d for d, (kills, _) in POWER_SUMS.items()
                 if kills or args.name == "franel-zeta2"]
    if not supported[0] <= lo <= hi <= supported[-1]:
        raise UsageError(f"{args.name} supports d in {supported[0]}..{supported[-1]}")
    report.inputs = {"name": args.name, "d_range": f"{lo}..{hi}",
                     "digits": str(args.digits)}
    failures = []
    for d in range(lo, hi + 1):
        started = time.perf_counter()
        verdict = {}
        family = FamilySpec("franel", d=d)
        rec = guessed_family_recurrence(family)
        verdict["order"] = str(rec.order)
        verdict["order_expected"] = str((d + 1) // 2)
        ok = rec.order == (d + 1) // 2
        init = primary_init(family, rec)
        if args.name == "franel-zeta2":
            primary = SolutionTable(rec, init)
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
            try:
                solved = solve_vanishing_init(rec, init.values, "zeta4",
                                              POWER_SUMS[d][0], args.digits)
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
    name, kv = _parse_spec(spec, {"log": ("x",), "arctan": ("z",)})
    if name == "log":
        return log_cf(_fraction(kv.get("x", "1")))
    return arctan_cf(_fraction(kv.get("z", "1")))


def cmd_cf(args) -> Report:
    report = Report("cf")
    if bool(args.cf) == bool(args.from_rec):
        raise UsageError("give exactly one of --cf or --from-rec")
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    if args.cf:
        cf = _parse_cf_spec(args.cf)
        report.inputs = {"cf": args.cf, "n": str(args.n)}
        vals = convergents(cf, args.n)
        report.results["convergents"] = [str(v) for v in vals]
    else:
        rec = _recurrence(args.from_rec, _rec_family(args.from_rec))
        rescaling = ratfunc_from_text(args.rescale) if args.rescale else None
        cf = from_recurrence(rec, rescaling)
        report.inputs = {"from_rec": args.from_rec,
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
