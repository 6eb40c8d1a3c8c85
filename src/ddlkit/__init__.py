"""Reasoning toolkit for dyadic deontic logic.

Parse formulas, evaluate them over finite models, search for
countermodels, embed them as typed lambda terms, evaluate the embedded
terms in finite standard interpretations, and export TPTP-THF problems
for external higher-order provers.
"""

from .checker import eval_formula, truth_set, valid_in_model
from .export import ThfProblem, axioms_problem, to_thf_problem, to_thf_term
from .faithful import check_faithfulness
from .henkin import HenkinModel, build_henkin, eval_term, extract_model
from .hol import (HolTypeError, axioms, beta_eta_normalize, embed,
                  pretty_term, type_of, vld)
from .model import (CJModel, ValidationReport, canonicalize, load_model,
                    random_model, validate)
from .search import (CounterModel, NoCounterexampleUpTo, find_countermodel,
                     verdict)
from .syntax import Formula, ParseError, atoms, parse, pretty

__all__ = [
    "CJModel", "CounterModel", "Formula", "HenkinModel", "HolTypeError",
    "NoCounterexampleUpTo", "ParseError", "ThfProblem", "ValidationReport",
    "atoms", "axioms", "axioms_problem", "beta_eta_normalize",
    "build_henkin", "canonicalize", "check_faithfulness", "embed",
    "eval_formula", "eval_term", "extract_model", "find_countermodel",
    "load_model", "parse", "pretty", "pretty_term", "random_model",
    "to_thf_problem", "to_thf_term", "truth_set", "type_of",
    "vld", "valid_in_model", "validate", "verdict",
]

__version__ = "0.1.0"
