"""Finite Kripke models: evaluation, structure checks, bounded search.

A model carries finitely many worlds, an accessibility relation, a finite
universe of individuals, a per-world existence domain, rigid constant and
function interpretations, and world-relative predicate extensions.  On top
of that this module provides

- eval_fml: standard modal truth at a world (quantifiers range over the
  world's domain, boxes over accessible worlds),
- eval_hol: full finite-domain evaluation of embedded HOL terms, so both
  readings of a formula can be compared on the same model,
- check_frame / check_domains and their violation-listing variants,
- find_countermodel: bounded search for a model refuting a conjecture,
  with one enumerator over frames rooted at w1 (every world reachable
  from it, the conjecture refuted there),
- correspondence_check: per-world agreement of the two readings,
- parse_model / print_model for the line-based fixture format.

Terms denote rigidly and may denote individuals outside dom(w); only
quantifiers are restricted to dom(w).  This matches the embedding, whose
existence guard appears at quantifiers only.

Rooting loses nothing: a model refuting a formula at w restricts to the
submodel generated by w, which keeps the frame and domain conditions and
every truth value at w.  Individuals are enumerated up to renaming,
whatever the signature.  Frame and domain conditions each have one
definition, the violation generators behind frame_violations and
domain_violations, which the search calls as filters.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field, replace

from . import embedding, fml, hol
from .embedding import DomainCondition, FrameProperty, TranslationConfig, frame_properties

_NAME = re.compile(r"\w+\Z")
_EMPTY: frozenset = frozenset()


class ModelError(ValueError):
    """A fixture cannot be parsed or a model fails its invariants."""


class UnboundVariableError(Exception):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' has no value")
        self.name = name


class UnknownSymbolError(Exception):
    def __init__(self, name: str):
        super().__init__(f"symbol '{name}' has no interpretation in the model")
        self.name = name


class NonFiniteTypeError(Exception):
    def __init__(self, type_text: str):
        super().__init__(f"cannot enumerate values of type {type_text}")
        self.type_text = type_text


class NoConjectureError(ValueError):
    pass


@dataclass(frozen=True)
class KripkeModel:
    """Finite model; all collection fields are normalized on construction.

    preds maps (predicate, world) to a set of argument tuples; pairs with
    an empty extension are dropped so that equal models compare equal.
    consts and funcs are world-independent, and every function must be
    total over universe^n.
    """

    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    universe: tuple[str, ...]
    dom: dict[str, frozenset[str]]
    consts: dict[str, str] = field(default_factory=dict)
    funcs: dict[tuple[str, tuple[str, ...]], str] = field(default_factory=dict)
    preds: dict[tuple[str, str], frozenset[tuple[str, ...]]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "worlds", tuple(self.worlds))
        object.__setattr__(self, "rel", frozenset(tuple(p) for p in self.rel))
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "dom", {w: frozenset(d) for w, d in self.dom.items()})
        object.__setattr__(
            self, "funcs", {(f, tuple(args)): v for (f, args), v in self.funcs.items()}
        )
        object.__setattr__(self, "consts", dict(self.consts))
        object.__setattr__(
            self,
            "preds",
            {k: frozenset(tuple(t) for t in v) for k, v in self.preds.items() if v},
        )
        self._validate()

    @classmethod
    def _unchecked(cls, worlds, rel, universe, dom, consts, funcs, preds) -> KripkeModel:
        """Skip normalization and validation, for the many candidates of a
        search; the winner is rebuilt through __init__ before it is returned."""
        model = object.__new__(cls)
        model.__dict__.update(
            worlds=worlds, rel=rel, universe=universe, dom=dom,
            consts=consts, funcs=funcs, preds=preds,
        )
        return model

    def _validate(self):
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        if not self.universe:
            raise ModelError("a model needs at least one individual")
        for name in (*self.worlds, *self.universe):
            if not _NAME.match(name):
                raise ModelError(f"bad identifier {name!r}")
        if len(set(self.worlds)) != len(self.worlds):
            raise ModelError("duplicate world")
        if len(set(self.universe)) != len(self.universe):
            raise ModelError("duplicate individual")
        worlds = set(self.worlds)
        universe = set(self.universe)
        for u, v in self.rel:
            if u not in worlds or v not in worlds:
                raise ModelError(f"relation pair {u}>{v} mentions an unknown world")
        for w in self.worlds:
            if w not in self.dom:
                raise ModelError(f"missing domain for world {w}")
        for w, members in self.dom.items():
            if w not in worlds:
                raise ModelError(f"domain for unknown world {w}")
            if not members <= universe:
                raise ModelError(f"dom({w}) mentions individuals outside the universe")
        for name, val in self.consts.items():
            if not _NAME.match(name):
                raise ModelError(f"bad constant name {name!r}")
            if val not in universe:
                raise ModelError(f"constant {name} denotes unknown individual {val!r}")
        arities: dict[str, int] = {}
        for (name, args), val in self.funcs.items():
            if not _NAME.match(name):
                raise ModelError(f"bad function name {name!r}")
            if arities.setdefault(name, len(args)) != len(args):
                raise ModelError(f"function {name} used with two different arities")
            if any(a not in universe for a in args) or val not in universe:
                raise ModelError(f"function entry {name}{args!r} leaves the universe")
        for name, arity in arities.items():
            for combo in itertools.product(self.universe, repeat=arity):
                if (name, combo) not in self.funcs:
                    entry = f"{name}({','.join(combo)})"
                    raise ModelError(f"function {name} is not total: missing {entry}")
        pred_arities: dict[str, int] = {}
        for (name, w), ext in self.preds.items():
            if not _NAME.match(name):
                raise ModelError(f"bad predicate name {name!r}")
            if w not in worlds:
                raise ModelError(f"predicate {name} valued at unknown world {w}")
            for args in ext:
                if pred_arities.setdefault(name, len(args)) != len(args):
                    raise ModelError(f"predicate {name} used with two different arities")
                if any(a not in universe for a in args):
                    raise ModelError(f"predicate {name} holds of unknown individuals")


def _eval_term(model, term: fml.Term, assignment) -> str:
    if isinstance(term, fml.Variable):
        try:
            return assignment[term.name]
        except KeyError:
            raise UnboundVariableError(term.name) from None
    if isinstance(term, fml.Constant):
        try:
            return model.consts[term.name]
        except KeyError:
            raise UnknownSymbolError(term.name) from None
    if isinstance(term, fml.FunctionApp):
        args = tuple(_eval_term(model, a, assignment) for a in term.args)
        try:
            return model.funcs[(term.name, args)]
        except KeyError:
            raise UnknownSymbolError(term.name) from None
    raise TypeError(f"not a term: {term!r}")


def eval_fml(model, world: str, formula: fml.Formula, assignment=None) -> bool:
    """Truth of a formula at a world under an assignment of free variables.

    Boxes quantify over accessible worlds, individual quantifiers over
    dom(w) of the world of evaluation; atoms are evaluated over the full
    universe.
    """
    succ: dict[str, list[str]] = {w: [] for w in model.worlds}
    for u, v in model.rel:
        succ[u].append(v)

    def go(w: str, f: fml.Formula, a) -> bool:
        if isinstance(f, fml.Atom):
            args = tuple(_eval_term(model, t, a) for t in f.args)
            return args in model.preds.get((f.pred, w), _EMPTY)
        if isinstance(f, fml.Not):
            return not go(w, f.body, a)
        if isinstance(f, fml.And):
            return go(w, f.left, a) and go(w, f.right, a)
        if isinstance(f, fml.Or):
            return go(w, f.left, a) or go(w, f.right, a)
        if isinstance(f, fml.Implies):
            return not go(w, f.left, a) or go(w, f.right, a)
        if isinstance(f, fml.Box):
            return all(go(v, f.body, a) for v in succ[w])
        if isinstance(f, fml.Dia):
            return any(go(v, f.body, a) for v in succ[w])
        if isinstance(f, fml.Forall):
            members = model.dom[w]
            return all(
                go(w, f.body, {**a, f.var: x}) for x in model.universe if x in members
            )
        if isinstance(f, fml.Exists):
            members = model.dom[w]
            return any(
                go(w, f.body, {**a, f.var: x}) for x in model.universe if x in members
            )
        raise TypeError(f"not a formula: {f!r}")

    return go(world, formula, {} if assignment is None else assignment)


# the relation constants of all logics, by name: a model's frame is their value
_RELATIONS = {rel.name: rel for rel in map(embedding.rel_const, embedding.Logic)}
_TRUTH_VALUES = (False, True)


def _peel(t: hol.Type) -> tuple[list[hol.Type], hol.Type]:
    args = []
    while isinstance(t, hol.ArrowType):
        args.append(t.arg)
        t = t.result
    return args, t


def _curried(arity: int, finish):
    def build(acc):
        if len(acc) == arity:
            return finish(acc)
        return lambda v: build(acc + (v,))

    return build(())


def _const_value(model, const: hol.Const):
    # names are compared first: this runs for every constant evaluated
    guard = embedding.EXISTS_IN_WORLD
    if const.name == guard.name and const == guard:
        return _curried(2, lambda a: a[0] in model.dom[a[1]])
    if _RELATIONS.get(const.name) == const:
        return _curried(2, lambda a: (a[0], a[1]) in model.rel)
    args, result = _peel(const.type)
    if const.type == hol.INDIV:
        try:
            return model.consts[const.name]
        except KeyError:
            raise UnknownSymbolError(const.name) from None
    if result == hol.INDIV and all(a == hol.INDIV for a in args):
        name = const.name

        def call_func(acc):
            try:
                return model.funcs[(name, acc)]
            except KeyError:
                raise UnknownSymbolError(name) from None

        return _curried(len(args), call_func)
    if (
        result == hol.TRUTH
        and args
        and args[-1] == hol.WORLD
        and all(a == hol.INDIV for a in args[:-1])
    ):
        name = const.name
        k = len(args) - 1
        return _curried(len(args), lambda a: a[:k] in model.preds.get((name, a[k]), _EMPTY))
    raise UnknownSymbolError(const.name)


def eval_hol(model, term: hol.Term, environment=None):
    """Evaluate a beta-normal, definition-free HOL term over the model.

    Mu quantifiers range over the universe, $i quantifiers over the
    worlds; lambdas become Python functions, so terms of function type
    evaluate to callables.  Quantification over a function type raises
    NonFiniteTypeError (the embedding never produces one after expansion).
    """

    def domain_of(t: hol.Type):
        if t == hol.TRUTH:
            return _TRUTH_VALUES
        if t == hol.WORLD:
            return model.worlds
        if t == hol.INDIV:
            return model.universe
        raise NonFiniteTypeError(hol.print_type(t))

    def go(t: hol.Term, env):
        if isinstance(t, hol.Var):
            try:
                return env[t.name]
            except KeyError:
                raise UnboundVariableError(t.name) from None
        if isinstance(t, hol.Const):
            return _const_value(model, t)
        if isinstance(t, hol.App):
            return go(t.fun, env)(go(t.arg, env))
        if isinstance(t, hol.Lambda):
            return lambda v: go(t.body, {**env, t.var: v})
        if isinstance(t, hol.Forall):
            return all(go(t.body, {**env, t.var: v}) for v in domain_of(t.var_type))
        if isinstance(t, hol.Exists):
            return any(go(t.body, {**env, t.var: v}) for v in domain_of(t.var_type))
        if isinstance(t, hol.Not):
            return not go(t.body, env)
        if isinstance(t, hol.And):
            return go(t.left, env) and go(t.right, env)
        if isinstance(t, hol.Or):
            return go(t.left, env) or go(t.right, env)
        if isinstance(t, hol.Implies):
            return not go(t.left, env) or go(t.right, env)
        raise TypeError(f"not a term: {t!r}")

    return go(term, {} if environment is None else dict(environment))


def _frame_faults(worlds, rel, logic: embedding.Logic):
    """Lazily yield frame_violations' messages for a bare relation."""
    pairs = sorted(rel)
    for prop in frame_properties(logic):
        if prop is FrameProperty.SERIAL:
            for w in worlds:
                if not any((w, v) in rel for v in worlds):
                    yield f"not serial: {w} has no successor"
        elif prop is FrameProperty.REFLEXIVE:
            for w in worlds:
                if (w, w) not in rel:
                    yield f"not reflexive: missing {w}>{w}"
        elif prop is FrameProperty.TRANSITIVE:
            for u, v in pairs:
                for v2, w in pairs:
                    if v2 == v and (u, w) not in rel:
                        yield f"not transitive: {u}>{v} and {v}>{w} but not {u}>{w}"
        elif prop is FrameProperty.SYMMETRIC:
            for u, v in pairs:
                if (v, u) not in rel:
                    yield f"not symmetric: {u}>{v} but not {v}>{u}"


def frame_violations(model, logic: embedding.Logic) -> tuple[str, ...]:
    """Violation messages, one per offending world or pair; empty if none."""
    return tuple(_frame_faults(model.worlds, model.rel, logic))


def check_frame(model, logic: embedding.Logic) -> bool:
    return not frame_violations(model, logic)


def _existence_faults(worlds, rel, universe, dom, domain: DomainCondition):
    """The constant and cumulative clauses.  Both speak of one individual
    at a time, so they hold of a model exactly when they hold of each of
    its individuals alone."""
    if domain is DomainCondition.CONSTANT:
        full = frozenset(universe)
        for w in worlds:
            if dom[w] != full:
                yield f"not constant: dom({w}) differs from the universe"
    elif domain is DomainCondition.CUMULATIVE:
        for u, v in sorted(rel):
            missing = sorted(dom[u] - dom[v])
            if missing:
                yield f"not cumulative: {missing[0]} exists at {u} but not at {v} despite {u}>{v}"


def _interpretation_faults(worlds, dom, consts, funcs):
    """The non-emptiness, designation and closure clauses."""
    for w in worlds:
        if not dom[w]:
            yield f"non-emptiness violated: dom({w}) is empty"
    for name in sorted(consts):
        val = consts[name]
        for w in worlds:
            if val not in dom[w]:
                yield f"undesignated constant: {name} = {val} is not in dom({w})"
    for name, args in sorted(funcs):
        val = funcs[(name, args)]
        for w in worlds:
            if val not in dom[w] and all(a in dom[w] for a in args):
                yield f"unclosed function: {name}({','.join(args)}) = {val} leaves dom({w})"


def domain_violations(model, domain: DomainCondition) -> tuple[str, ...]:
    """Violation messages for a domain condition; empty if the model fits.

    Constant requires dom(w) = universe everywhere.  Varying requires
    nonempty domains, constants that exist in every world, and function
    values that stay inside any domain their arguments come from.
    Cumulative adds monotonicity of domains along the relation.
    """
    existence = _existence_faults(model.worlds, model.rel, model.universe, model.dom, domain)
    if domain is DomainCondition.CONSTANT:
        return tuple(existence)
    interpretation = _interpretation_faults(model.worlds, model.dom, model.consts, model.funcs)
    return (*interpretation, *existence)


def check_domains(model, domain: DomainCondition) -> bool:
    return not domain_violations(model, domain)


def correspondence_check(model, formula: fml.Formula, config: TranslationConfig) -> bool:
    """Do the modal and the embedded reading agree at every world?

    The formula must be closed.  Its embedding is expanded to a
    definition-free beta-normal term of type $i > $o and evaluated over
    the model; the result must equal eval_fml world by world.
    """
    infrastructure = hol.Problem(embedding.connective_definitions(config))
    expanded = hol.expand_definitions(infrastructure, embedding.embed_formula(formula, config))
    lifted = eval_hol(model, expanded)
    return all(eval_fml(model, w, formula) == lifted(w) for w in model.worlds)


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    max_individuals: int
    time_budget: float | None = None

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_individuals < 1:
            raise ValueError("search bounds must be at least 1")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


@dataclass(frozen=True)
class Countermodel:
    model: KripkeModel
    world: str


@dataclass(frozen=True)
class NoCountermodelWithinBounds:
    pass


@dataclass(frozen=True)
class Timeout:
    pass


SearchResult = Countermodel | NoCountermodelWithinBounds | Timeout


class _Deadline(Exception):
    pass


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise _Deadline


def _rooted(worlds, rel) -> bool:
    """Is every world reachable from the first one?"""
    seen = {worlds[0]}
    frontier = [worlds[0]]
    while frontier:
        u = frontier.pop()
        for v in worlds:
            if v not in seen and (u, v) in rel:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(worlds)


def _listed(options, deadline) -> list:
    """The options as a list, checking the time budget per option: a
    ternary predicate or function at 3 individuals has 2^27 extensions or
    3^27 tables, more than memory holds."""
    out = []
    for option in options:
        _check_deadline(deadline)
        out.append(option)
    return out


def _relations(worlds, logic: embedding.Logic, deadline):
    pairs = [(u, v) for u in worlds for v in worlds]
    for mask in range(2 ** len(pairs)):
        # most masks are filtered out, so the budget is checked per mask
        _check_deadline(deadline)
        rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        if _rooted(worlds, rel) and next(_frame_faults(worlds, rel, logic), None) is None:
            yield rel


def _refutes(model, assumptions, goal) -> bool:
    """Is the goal false at the first world while every assumption is valid?"""
    if eval_fml(model, model.worlds[0], goal):
        return False
    return all(eval_fml(model, w, a) for a in assumptions for w in model.worlds)


def _behaviors(worlds, rel, unary_count, domain):
    """Per-individual behavior: for each world, an existence bit plus one
    membership bit per unary predicate, for every existence vector that
    meets the constant and cumulative clauses on its own.  Enumeration
    order is fixed, so combinations_with_replacement over it takes the
    individuals in one canonical order; as the search then enumerates
    constants, functions and the other predicates in full, every model
    has an isomorphic copy among its candidates."""
    bit_options = list(itertools.product(_TRUTH_VALUES, repeat=unary_count))
    lone = ("d1",)
    out = []
    for exists in itertools.product(_TRUTH_VALUES, repeat=len(worlds)):
        dom = {w: frozenset(lone) if e else _EMPTY for w, e in zip(worlds, exists)}
        if next(_existence_faults(worlds, rel, lone, dom, domain), None) is None:
            out.extend(itertools.product(*([(e, b) for b in bit_options] for e in exists)))
    return out


def _search(worlds, universe, sig, assumptions, goal, config, deadline):
    """First model over these worlds and individuals, rooted at worlds[0],
    that refutes the goal there; None if there is none."""
    unary = [p for p, k in sig.predicates.items() if k == 1]
    extensions = {}  # per arity, shared by the predicates of that arity
    for k in set(sig.predicates.values()) - {1}:
        tuples = list(itertools.product(universe, repeat=k))
        extensions[k] = _listed(
            (
                frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
                for mask in range(2 ** len(tuples))
            ),
            deadline,
        )
    slots = [(p, w) for p, k in sig.predicates.items() if k != 1 for w in worlds]
    slot_options = [extensions[sig.predicates[p]] for p, _ in slots]
    const_options = [
        dict(zip(sig.constants, values))
        for values in itertools.product(universe, repeat=len(sig.constants))
    ]
    # one option list per function; their product is walked lazily below
    func_options = []
    for name, arity in sig.functions.items():
        entries = [(name, args) for args in itertools.product(universe, repeat=arity)]
        values = itertools.product(universe, repeat=len(entries))
        func_options.append(_listed((dict(zip(entries, v)) for v in values), deadline))
    for rel in _relations(worlds, config.logic, deadline):
        behaviors = _behaviors(worlds, rel, len(unary), config.domain)
        for combo in itertools.combinations_with_replacement(behaviors, len(universe)):
            _check_deadline(deadline)
            dom = {
                w: frozenset(x for x, b in zip(universe, combo) if b[i][0])
                for i, w in enumerate(worlds)
            }
            base_preds = {}
            for pi, p in enumerate(unary):
                for i, w in enumerate(worlds):
                    ext = frozenset((x,) for x, b in zip(universe, combo) if b[i][1][pi])
                    if ext:
                        base_preds[(p, w)] = ext
            for consts in const_options:
                for parts in itertools.product(*func_options):
                    _check_deadline(deadline)
                    funcs = {k: v for part in parts for k, v in part.items()}
                    if next(_interpretation_faults(worlds, dom, consts, funcs), None) is not None:
                        continue
                    for exts in itertools.product(*slot_options):
                        _check_deadline(deadline)
                        preds = dict(base_preds)
                        preds.update((slot, ext) for slot, ext in zip(slots, exts) if ext)
                        candidate = KripkeModel._unchecked(
                            worlds, rel, universe, dom, consts, funcs, preds
                        )
                        if _refutes(candidate, assumptions, goal):
                            return candidate
    return None


def _verify_countermodel(model, witness, assumptions, goal, config):
    ok = (
        check_frame(model, config.logic)
        and check_domains(model, config.domain)
        and all(eval_fml(model, w, a) for a in assumptions for w in model.worlds)
        and not eval_fml(model, witness, goal)
    )
    if not ok:
        raise AssertionError("internal error: countermodel failed re-verification")


def find_countermodel(
    problem: fml.Problem, config: TranslationConfig, bounds: SearchBounds
) -> SearchResult:
    """Bounded search for a model refuting the problem's conjecture.

    Enumerates sizes smallest first (worlds before individuals); a hit
    makes every non-conjecture unit true at every world and the
    conjecture false at the first world, w1.  One enumerator walks the
    relations that satisfy the frame conditions, then builds the model
    individual by individual (existence and unary predicates per world),
    then constants, functions and the remaining predicate extensions.
    Only frames rooted at w1, with every world reachable from it, are
    enumerated: a model refuting the conjecture at w restricts to the
    submodel generated by w, which keeps every frame and domain condition
    and every verdict there, so neither the answer nor the smallest size
    changes.  Individuals are enumerated up to renaming, whatever the
    signature: their behaviors are taken as a multiset, and everything
    else is enumerated in full over it.  Returns the first countermodel
    found, NoCountermodelWithinBounds after exhausting the bounds, or
    Timeout once the time budget runs out.
    """
    conjecture = problem.conjecture()
    if conjecture is None:
        raise NoConjectureError("the problem has no conjecture to refute")
    sig = problem.signature
    assumptions = tuple(u.formula for u in problem.units if u.role != "conjecture")
    goal = conjecture.formula
    deadline = None if bounds.time_budget is None else time.monotonic() + bounds.time_budget
    try:
        for n_worlds in range(1, bounds.max_worlds + 1):
            worlds = tuple(f"w{i}" for i in range(1, n_worlds + 1))
            for n_indiv in range(1, bounds.max_individuals + 1):
                universe = tuple(f"d{i}" for i in range(1, n_indiv + 1))
                candidate = _search(worlds, universe, sig, assumptions, goal, config, deadline)
                if candidate is not None:
                    # rebuilt through __init__, so normalized and validated
                    model = replace(candidate)
                    _verify_countermodel(model, worlds[0], assumptions, goal, config)
                    return Countermodel(model, worlds[0])
    except _Deadline:
        return Timeout()
    return NoCountermodelWithinBounds()


_CONST_LINE = re.compile(r"const\s+(\w+)\s*=\s*(\w+)\Z")
_FUN_LINE = re.compile(r"fun\s+(\w+)\(([^()]*)\)\s*=\s*(\w+)\Z")
_PRED_LINE = re.compile(r"pred\s+(\w+)\s*@\s*(\w+)\s*:(.*)\Z")


def parse_model(text: str) -> KripkeModel:
    """Read the line-based fixture format.

    Lines: ``worlds: w1 w2``, ``rel: w1>w2 w2>w2``, ``universe: a b``,
    ``dom w1: a``, ``const c = a``, ``fun g(a) = b``, ``pred f @ w1: a``;
    ``#`` starts a comment.  Binary and longer predicate entries separate
    tuple components with commas (``pred r @ w1: a,b``); ``()`` marks a
    nullary predicate as true.  Worlds without a dom line default to the
    full universe.
    """
    worlds = None
    universe = None
    rel: set[tuple[str, str]] = set()
    dom: dict[str, frozenset[str]] = {}
    consts: dict[str, str] = {}
    funcs: dict[tuple[str, tuple[str, ...]], str] = {}
    preds: dict[tuple[str, str], set[tuple[str, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(msg: str):
            raise ModelError(f"line {lineno}: {msg}")

        if line.startswith("worlds:"):
            if worlds is not None:
                fail("worlds line given twice")
            worlds = tuple(line[len("worlds:"):].split())
        elif line.startswith("universe:"):
            if universe is not None:
                fail("universe line given twice")
            universe = tuple(line[len("universe:"):].split())
        elif line.startswith("rel:"):
            for entry in line[len("rel:"):].split():
                if entry.count(">") != 1:
                    fail(f"bad relation entry {entry!r} (expected w>v)")
                u, _, v = entry.partition(">")
                rel.add((u, v))
        elif line.startswith("dom "):
            head, sep, rest = line.partition(":")
            world = head[len("dom "):].strip()
            if not sep or not world:
                fail("bad dom line (expected 'dom <world>: members')")
            if world in dom:
                fail(f"dom {world} given twice")
            dom[world] = frozenset(rest.split())
        elif line.startswith("const "):
            m = _CONST_LINE.match(line)
            if not m:
                fail("bad const line (expected 'const <name> = <individual>')")
            name, val = m.groups()
            if name in consts:
                fail(f"const {name} given twice")
            consts[name] = val
        elif line.startswith("fun "):
            m = _FUN_LINE.match(line)
            if not m:
                fail("bad fun line (expected 'fun <name>(<args>) = <individual>')")
            name, inner, val = m.groups()
            args = tuple(a.strip() for a in inner.split(",")) if inner.strip() else ()
            if any(not _NAME.match(a) for a in args):
                fail(f"bad argument list {inner!r}")
            if (name, args) in funcs:
                fail(f"fun {name}({inner}) given twice")
            funcs[(name, args)] = val
        elif line.startswith("pred "):
            m = _PRED_LINE.match(line)
            if not m:
                fail("bad pred line (expected 'pred <name> @ <world>: entries')")
            name, world, rest = m.groups()
            ext = preds.setdefault((name, world), set())
            for item in rest.split():
                if item == "()":
                    ext.add(())
                    continue
                parts = tuple(item.split(","))
                if any(not _NAME.match(p) for p in parts):
                    fail(f"bad predicate entry {item!r}")
                ext.add(parts)
        else:
            fail(f"unrecognized line {line!r}")
    if worlds is None:
        raise ModelError("missing worlds line")
    if universe is None:
        raise ModelError("missing universe line")
    for w in worlds:
        dom.setdefault(w, frozenset(universe))
    return KripkeModel(
        worlds,
        frozenset(rel),
        universe,
        dom,
        consts,
        funcs,
        {k: frozenset(v) for k, v in preds.items()},
    )


def print_model(model: KripkeModel) -> str:
    """Render in the fixture format; parse_model(print_model(m)) == m."""
    windex = {w: i for i, w in enumerate(model.worlds)}
    uindex = {x: i for i, x in enumerate(model.universe)}
    lines = [f"worlds: {' '.join(model.worlds)}"]
    if model.rel:
        pairs = sorted(model.rel, key=lambda p: (windex[p[0]], windex[p[1]]))
        lines.append("rel: " + " ".join(f"{u}>{v}" for u, v in pairs))
    lines.append(f"universe: {' '.join(model.universe)}")
    for w in model.worlds:
        members = " ".join(x for x in model.universe if x in model.dom[w])
        lines.append(f"dom {w}: {members}".rstrip())
    for name in sorted(model.consts):
        lines.append(f"const {name} = {model.consts[name]}")
    for name, args in sorted(
        model.funcs, key=lambda k: (k[0], tuple(uindex[a] for a in k[1]))
    ):
        lines.append(f"fun {name}({','.join(args)}) = {model.funcs[(name, args)]}")
    for name, w in sorted(model.preds, key=lambda k: (k[0], windex[k[1]])):
        ext = sorted(model.preds[(name, w)], key=lambda t: tuple(uindex[a] for a in t))
        items = " ".join("()" if t == () else ",".join(t) for t in ext)
        lines.append(f"pred {name} @ {w}: {items}".rstrip())
    return "\n".join(lines) + "\n"
