"""First-order modal logic to classical higher-order logic, by embedding.

Problems written in qmf syntax are translated into thf0 problems whose
validity (over Henkin semantics) matches modal validity for the chosen
logic (K, K4, D, D4, T, S4, S5) and domain condition (constant, varying,
cumulative).  A finite Kripke-model oracle evaluates formulas on both
sides of the translation and searches for bounded countermodels.
"""

from . import cli, embedding, fml, hol, kripke, qmf, thf
from .embedding import (
    DomainCondition,
    Logic,
    TranslationConfig,
    embed_formula,
    embed_problem,
    frame_properties,
    parse_domain,
    parse_logic,
)
from .kripke import (
    Countermodel,
    KripkeModel,
    NoCountermodelWithinBounds,
    SearchBounds,
    SearchResult,
    Timeout,
    check_domains,
    check_frame,
    correspondence_check,
    countermodel_violations,
    eval_fml,
    eval_hol,
    find_countermodel,
    label_fml,
    parse_model,
    print_model,
)
from .qmf import parse_formula, parse_problem, print_formula, print_problem
from .thf import EmittedOutput, Include, Inline, emit_problem

__version__ = "0.1.0"

__all__ = [
    "cli",
    "embedding",
    "fml",
    "hol",
    "kripke",
    "qmf",
    "thf",
    "DomainCondition",
    "Logic",
    "TranslationConfig",
    "embed_formula",
    "embed_problem",
    "frame_properties",
    "parse_domain",
    "parse_logic",
    "Countermodel",
    "KripkeModel",
    "NoCountermodelWithinBounds",
    "SearchBounds",
    "SearchResult",
    "Timeout",
    "check_domains",
    "check_frame",
    "correspondence_check",
    "countermodel_violations",
    "eval_fml",
    "eval_hol",
    "find_countermodel",
    "label_fml",
    "parse_model",
    "print_model",
    "parse_formula",
    "parse_problem",
    "print_formula",
    "print_problem",
    "EmittedOutput",
    "Include",
    "Inline",
    "emit_problem",
]
