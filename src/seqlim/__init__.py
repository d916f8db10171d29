"""seqlim: exact binomial sums, linear recurrences, and limit recognition.

The toolkit evaluates binomial-sum families exactly, discovers the linear
recurrences they satisfy, computes quotient limits of recurrence solutions
to arbitrary precision, converts between recurrences and irregular
continued fractions, and identifies numerical limits as rational
combinations of classical constants via lattice reduction.

Typical use:

>>> from fractions import Fraction
>>> import seqlim
>>> a, b = seqlim.family_pair(seqlim.FamilySpec("delannoy"))
>>> report = seqlim.apery_limit(a, b, 40)
>>> str(seqlim.recognize_constant(report.limit_estimate, ["ln2"]))
'1/2*ln2'
"""

from seqlim.arith import OO, BigFloat, Poly, RatFunc, rational_from_decimal
from seqlim.contfrac import (
    ContinuedFraction,
    convergent,
    convergents,
    from_recurrence,
    to_recurrence,
)
from seqlim.limits import (
    ConvergenceReport,
    SeriesLimit,
    apery_limit,
    difference_identity_check,
    difference_ratio_limit,
    franel_secondary,
    linear_form_decay,
    quotients,
    series_limit,
    solve_vanishing_init,
    telescoped_partial_sums,
)
from seqlim.recognize import (
    CATALOG_NAMES,
    SymbolicForm,
    eval_constant,
    integer_relation,
    lll_reduce,
    recognize_constant,
)
from seqlim.recurrence import (
    CharRoots,
    InitialConditions,
    Recurrence,
    SolutionTable,
    casoratian,
    casoratian_check,
    characteristic_polynomial,
    characteristic_roots,
    guess_recurrence,
    poincare_classify,
    rescale,
    secondary_from_primary,
)
from seqlim.sums import (
    FamilySpec,
    delannoy_x_symbolic_pair,
    eval_apery_secondary,
    eval_family,
    family_pair,
)

__all__ = [
    "OO", "BigFloat", "Poly", "RatFunc", "rational_from_decimal",
    "ContinuedFraction", "convergent", "convergents", "from_recurrence",
    "to_recurrence",
    "ConvergenceReport", "SeriesLimit", "apery_limit",
    "difference_identity_check", "difference_ratio_limit", "franel_secondary",
    "linear_form_decay", "quotients", "series_limit", "solve_vanishing_init",
    "telescoped_partial_sums",
    "CATALOG_NAMES", "SymbolicForm", "eval_constant", "integer_relation",
    "lll_reduce", "recognize_constant",
    "CharRoots", "InitialConditions", "Recurrence", "SolutionTable",
    "casoratian", "casoratian_check", "characteristic_polynomial",
    "characteristic_roots", "guess_recurrence", "poincare_classify",
    "rescale", "secondary_from_primary",
    "FamilySpec", "delannoy_x_symbolic_pair", "eval_apery_secondary", "eval_family",
    "family_pair",
]

__version__ = "0.1.0"
