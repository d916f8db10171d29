"""Job lists for the benchmark workloads and independent checks of their output.

A job is one ``seqlim`` command line plus what its output must show.  Job
lists are drawn from a seed, so the same seed always gives the same jobs.
Every check recomputes the expected answer without seqlim: limits against
mpmath references, recurrences against terms summed here with ``math.comb``,
conjecture rows against the closed forms they claim.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath

WIDE_BASIS = "one,ln2,pi,zeta2,zeta3,catalan,L3"

# Small-height rationals on which the x-families converge and guess at a
# similar cost, so the seed moves the inputs without moving the run time much.
X_POOL = ("1/2", "2/3", "3/4", "3/5", "4/5", "4/7", "5/6", "5/7", "5/8", "7/9")

# Order-2 limits the wide-basis job picks from: (spec, scale, reference).
_WIDE = (
    ("delannoy", None, "ln2/2"),
    ("apery3", None, "zeta3/6"),
    ("arctan:x=1/2", "4", "pi"),
)

# The constant each reference is, as its coefficients over the wide basis.
_REFERENCE_TERMS = {"ln2/2": {"ln2": "1/2"}, "zeta3/6": {"zeta3": "1/6"},
                    "pi": {"pi": "1"}}

# Minimal orders of the x-families' recurrences, as found by the guesser
# (max order 5, max degree 44); annihilation is checked here independently.
_X_FAMILY_ORDER = {"delannoy_sq_x": 3, "delannoy_cube_x": 4}
_X_FAMILY_POWER = {"delannoy_sq_x": 2, "delannoy_cube_x": 3}

# Terms the guess check recomputes: 10 beyond the 290 the guesser is given.
GUESS_CHECK_TERMS = 300

FRANEL_ZETA4_RANGE = (5, 9)
FRANEL_ZETA2_RANGE = (3, 8)

WORKLOADS = ("limit", "guess", "conjecture")


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The workload's job list for ``seed``: ``{"id", "argv", "expect"}`` dicts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "limit":
        return _limit_jobs(rng)
    if workload == "guess":
        return _guess_jobs(rng)
    if workload == "conjecture":
        return _conjecture_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _limit_job(job_id, rec, digits, reference, scale=None, recognize=None, x=None):
    argv = ["limit", "--rec", rec, "--digits", str(digits)]
    if scale:
        argv += ["--scale", scale]
    if recognize:
        argv += ["--recognize", recognize]
    terms = None
    if recognize:
        names = recognize.split(",")
        known = _REFERENCE_TERMS[reference]
        terms = {name: known.get(name, "0") for name in names}
    return {"id": job_id, "argv": argv + ["--json"],
            "expect": {"kind": "limit", "reference": reference, "x": x,
                       "digits": digits, "terms": terms}}


def _limit_jobs(rng):
    x = rng.choice(X_POOL)
    wide_rec, wide_scale, wide_ref = rng.choice(_WIDE)
    return [
        _limit_job("delannoy", "delannoy", rng.randint(2950, 3050), "ln2/2",
                   recognize="ln2"),
        _limit_job("arctan", "arctan:x=1/2", rng.randint(2950, 3050), "pi",
                   scale="4", recognize="pi"),
        _limit_job("apery3", "apery3", rng.randint(2950, 3050), "zeta3/6"),
        _limit_job("delannoy_x", f"delannoy_x:x={x}", rng.randint(1950, 2050),
                   "half_log_ratio", x=x),
        _limit_job("wide", wide_rec, rng.randint(495, 505), wide_ref,
                   scale=wide_scale, recognize=WIDE_BASIS),
    ]


def _guess_job(job_id, family, order, d=None, x=None):
    argv = ["guess", "--terms-from", family]
    if d is not None:
        argv += ["--d", str(d)]
    if x is not None:
        argv += ["--x", x]
    argv += ["--max-order", "5", "--max-degree", "44", "--json"]
    return {"id": job_id, "argv": argv,
            "expect": {"kind": "guess", "family": family, "d": d, "x": x,
                       "order": order}}


def _guess_jobs(rng):
    return [
        _guess_job("franel8", "franel", (8 + 1) // 2, d=8),
        _guess_job("franel10", "franel", (10 + 1) // 2, d=10),
        _guess_job("delannoy_sq_x", "delannoy_sq_x",
                   _X_FAMILY_ORDER["delannoy_sq_x"], x=rng.choice(X_POOL)),
        _guess_job("delannoy_cube_x", "delannoy_cube_x",
                   _X_FAMILY_ORDER["delannoy_cube_x"], x=rng.choice(X_POOL)),
    ]


def _conjecture_jobs(rng):
    jobs = []
    for name, (lo, hi), digits in (
            ("franel-zeta4", FRANEL_ZETA4_RANGE, rng.randint(28, 32)),
            ("franel-zeta2", FRANEL_ZETA2_RANGE, rng.randint(46, 54))):
        jobs.append({
            "id": name,
            "argv": ["conjecture", "--name", name, "--d-range", f"{lo}..{hi}",
                     "--digits", str(digits), "--json"],
            "expect": {"kind": "conjecture", "name": name, "lo": lo, "hi": hi,
                       "digits": digits}})
    return jobs


# ----------------------------------------------------------------------
# Independent checks
# ----------------------------------------------------------------------


def judge(job: dict, returncode: int | None, stdout: str) -> str | None:
    """Why the job's run is wrong, or None when it is right.

    ``returncode`` None means the job timed out.
    """
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    if job["expect"] is None:
        return None
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    expect = job["expect"]
    check = {"limit": _check_limit, "guess": _check_guess,
             "conjecture": _check_conjecture}[expect["kind"]]
    try:
        return check(expect, doc["results"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"


def reference_value(name: str, x: str | None, dps: int) -> mpmath.mpf:
    """The exact limit of a ``limit`` job, from mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        if name == "ln2/2":
            return mpmath.log(2) / 2
        if name == "pi":
            return +mpmath.pi
        if name == "zeta3/6":
            return mpmath.zeta(3) / 6
        if name == "half_log_ratio":
            q = Fraction(x)
            return mpmath.log(mpmath.mpf(q.numerator + q.denominator) / q.numerator) / 2
    raise ValueError(f"unknown reference {name!r}")


def _agrees(decimal: str, reference, places: int) -> bool:
    """Whether ``decimal`` is ``reference`` correct to ``places`` digits.

    seqlim prints values truncated to ``places`` digits, so a value within
    one unit of the last place, printed that way, is within two.
    """
    with mpmath.workdps(places + 20):
        return abs(mpmath.mpf(decimal) - reference) <= 2 * mpmath.mpf(10) ** (-places)


def _check_limit(expect, results):
    certified = int(results["certified_digits"])
    if certified < expect["digits"]:
        return f"certified {certified} digits, asked for {expect['digits']}"
    ref = reference_value(expect["reference"], expect["x"], certified + 20)
    if not _agrees(results["limit_decimal"], ref, certified):
        return f"limit differs from {expect['reference']} within its {certified} certified digits"
    if expect["terms"] is not None:
        got = {k: Fraction(v) for k, v in results["recognized_terms"].items()}
        want = {k: Fraction(v) for k, v in expect["terms"].items()}
        if got != want:
            return f"recognized {results['recognized']!r}, expected terms {expect['terms']}"
    return None


def _parse_poly(text: str) -> list[int]:
    """Integer coefficients (constant first) of ``3*n^2 - n + 7``-style text."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coef, var, power = term.partition("n")
        coef = coef.rstrip("*")
        value = sign * (int(coef) if coef else 1)
        k = int(power.lstrip("^")) if power else 1 if var else 0
        coeffs[k] = coeffs.get(k, 0) + value
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _parse_recurrence(text: str) -> list[list[int]]:
    head = {}
    polys = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(":")
        if key.startswith("c_"):
            polys[int(key[2:])] = _parse_poly(value)
        else:
            head[key.strip()] = int(value)
    if head.get("offset") != 0:
        raise ValueError(f"guessed recurrence has offset {head.get('offset')}")
    return [polys[k] for k in range(head["order"] + 1)]


def _horner(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@lru_cache(maxsize=None)
def scaled_family_terms(family: str, d: int | None, x: str | None,
                        count: int) -> tuple[tuple[int, ...], int]:
    """Terms n = 0..count-1 as integers T(n) = den**n * t(n), and den.

    franel: t(n) = sum C(n,k)^d.  delannoy_sq_x / delannoy_cube_x:
    t(n) = sum C(n,k) C(n+k,k)^e x^k with e = 2 or 3 and x = num/den.
    """
    if family == "franel":
        return tuple(sum(comb(n, k) ** d for k in range(n + 1))
                     for n in range(count)), 1
    power = _X_FAMILY_POWER[family]
    q = Fraction(x)
    num, den = q.numerator, q.denominator
    return tuple(sum(comb(n, k) * comb(n + k, k) ** power * num ** k * den ** (n - k)
                     for k in range(n + 1))
                 for n in range(count)), den


def _check_guess(expect, results):
    polys = _parse_recurrence(results["recurrence"])
    order = len(polys) - 1
    if order != expect["order"]:
        return f"order {order}, expected {expect['order']}"
    if not any(polys[-1]):
        return "leading coefficient is zero"
    terms, den = scaled_family_terms(expect["family"], expect["d"], expect["x"],
                                     GUESS_CHECK_TERMS)
    # sum_k c_k(n) t(n+k) = 0, multiplied through by den**(n+order)
    for n in range(len(terms) - order):
        total = sum(_horner(c, n) * terms[n + k] * den ** (order - k)
                    for k, c in enumerate(polys))
        if total:
            return f"recurrence fails at n = {n}"
    return None


def _check_conjecture(expect, results):
    if results.get("overall") != "pass":
        return f"overall {results.get('overall')!r}"
    digits = expect["digits"]
    for d in range(expect["lo"], expect["hi"] + 1):
        row = results[f"d={d}"]
        if int(row["order"]) != (d + 1) // 2:
            return f"d={d}: order {row['order']}, expected {(d + 1) // 2}"
        if expect["name"] == "franel-zeta4":
            lam = Fraction(3 * (5 * d + 2), (d + 1) * (d + 2) * (d + 3))
            if Fraction(row["lambda"]) != lam:
                return f"d={d}: lambda {row['lambda']}, expected {lam}"
            constant, places = 4, digits
        else:
            lam = Fraction(1, d + 1)
            if row["recognized"] != f"{lam}*zeta2":
                return f"d={d}: recognized {row['recognized']!r}, expected {lam}*zeta2"
            constant, places = 2, min(digits, int(row["digits"]))
        with mpmath.workdps(places + 20):
            ref = mpmath.zeta(constant) * lam.numerator / lam.denominator
        if not _agrees(row["limit"], ref, places):
            return f"d={d}: limit differs from {lam}*zeta{constant} in {places} places"
    return None
