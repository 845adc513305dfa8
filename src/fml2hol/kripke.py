"""Finite Kripke models: evaluation, structure checks, bounded search.

A model carries finitely many worlds, an accessibility relation, a finite
universe of individuals, a per-world existence domain, rigid constant and
function interpretations, and world-relative predicate extensions.  On top
of that this module provides

- label_fml: the set of worlds where a formula holds, as an int bitmask
  (bit i is worlds[i]), by bottom-up labelling as in model checking
  (Clarke, Emerson & Sistla, TOPLAS 1986): each formula is compiled once
  into a labeller, connectives become &, | and complement against the
  full mask, boxes lookups in the view's table over world sets (diamonds read
  it through their dual), and quantifiers folds over the universe masked
  by each individual's existence worlds (quantifiers range over the
  world's domain, boxes over accessible worlds),
- eval_fml: truth at one world, that world's bit of label_fml; the
  search, countermodel_violations and correspondence_check label directly,
- eval_hol: full finite-domain evaluation of embedded HOL terms, so both
  readings of a formula can be compared on the same model,
- check_frame / check_domains and their violation-listing variants,
- countermodel_violations: why a model is not a countermodel of a problem,
- find_countermodel: bounded search for a model refuting a conjecture,
  with one enumerator over frames rooted at w1 (every world reachable
  from it, the conjecture refuted there), one frame per class under
  renamings of the other worlds, from frames.py,
- correspondence_check: per-world agreement of the two readings,
- parse_model / print_model for the line-based fixture format.

Terms denote rigidly and may denote individuals outside dom(w); only
quantifiers are restricted to dom(w).  This matches the embedding, whose
existence guard appears at quantifiers only.

Rooting loses nothing: a model refuting a formula at w restricts to the
submodel generated by w, which keeps the frame and domain conditions and
every truth value at w.  Frames are enumerated up to renaming of the
worlds other than w1, and their lists, like the packed behaviours of the
individuals, are kept per process (see frames.py); individuals are
enumerated up to renaming, whatever the signature.  Frame and domain
conditions each have one definition over world masks, the violation
generators (the frame one in frames.py) that the search runs as filters
and frame_violations and domain_violations run on a model's masks.  The
domain one, _domain_faults, is written over packed lanes, a model being
its one-lane case: the search runs it over one probe lane per existence
vector, to find the vectors an individual may take, and over each chunk
of candidates, for the varying-domain clauses.  A KripkeModel carries
those masks as its view, built once by the walk that validates it, the
one place where a model's names become masks.  A search candidate is one
lane of a packed view, never a KripkeModel: only the winner is built as
one, and it is re-verified.  Candidates are labelled a chunk at a time
by bit-slicing (Biham, FSE 1997), bit c*n + i standing for worlds[i] in
lane c.  A candidate fills only the atoms that the units read, which one
labelling pass per frame and choice of constants and functions finds.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import time
from dataclasses import dataclass, field

from . import embedding, fml, hol
from .embedding import DomainCondition, TranslationConfig
from .frames import _WIDTH, _frame_faults, _lanes, _pairs, _rooted

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
    # the symbols interpreted, with their arities, as validation found them
    signature: fml.Signature = field(init=False, compare=False, repr=False)
    # what a labeller reads: the model as world masks, built by validation
    view: _View = field(init=False, compare=False, repr=False)

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

    def _validate(self):
        """Check the invariants and, in the same walk over the relation, the
        domains and the extensions, record the signature and the view: the
        one place where a model's names become world masks."""
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        if not self.universe:
            raise ModelError("a model needs at least one individual")
        for name in (*self.worlds, *self.universe):
            if not _NAME.match(name):
                raise ModelError(f"bad identifier {name!r}")
        index = {w: i for i, w in enumerate(self.worlds)}
        if len(index) != len(self.worlds):
            raise ModelError("duplicate world")
        universe = set(self.universe)
        if len(universe) != len(self.universe):
            raise ModelError("duplicate individual")
        successors = [0] * len(self.worlds)
        for u, v in self.rel:
            if u not in index or v not in index:
                raise ModelError(f"relation pair {u}>{v} mentions an unknown world")
            successors[index[u]] |= 1 << index[v]
        for w in self.worlds:
            if w not in self.dom:
                raise ModelError(f"missing domain for world {w}")
        # in universe order, the order quantifiers visit individuals in
        exists = dict.fromkeys(self.universe, 0)
        for w, members in self.dom.items():
            if w not in index:
                raise ModelError(f"domain for unknown world {w}")
            if not members <= universe:
                raise ModelError(f"dom({w}) mentions individuals outside the universe")
            for x in members:
                exists[x] |= 1 << index[w]
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
        atoms: dict[tuple[str, ...], int] = {}
        for (name, w), ext in self.preds.items():
            if not _NAME.match(name):
                raise ModelError(f"bad predicate name {name!r}")
            if w not in index:
                raise ModelError(f"predicate {name} valued at unknown world {w}")
            for args in ext:
                if pred_arities.setdefault(name, len(args)) != len(args):
                    raise ModelError(f"predicate {name} used with two different arities")
                if any(a not in universe for a in args):
                    raise ModelError(f"predicate {name} holds of unknown individuals")
                atoms[(name, *args)] = atoms.get((name, *args), 0) | 1 << index[w]
        signature = fml.Signature(pred_arities, arities, tuple(self.consts))
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "view", _View(successors, exists, atoms, self.consts, self.funcs))


class _View(dict):
    """What a labeller reads of a model.  A set of worlds is an int mask,
    bit i standing for worlds[i]: full holds every world, successors[i]
    the successors of worlds[i], exists[x] the worlds where x exists,
    atoms[(pred, *args)] the worlds where the atom holds (no entry:
    nowhere); consts and funcs denote rigidly.  The view is its own box
    table: view[S] holds the worlds whose successors all lie in S
    (diamonds read it through their dual, as the emitted mdia_<logic> is
    defined), each entry computed on first use and kept.  A KripkeModel
    builds its own view once.  A packed view holds one candidate per lane
    of n bits on one frame: bit c*n + i is worlds[i] in lane c (ones has
    bit c*n of each lane c set), and full, the table, exists and atoms
    span every lane; lane() reads one out.  The attributes are slots: a
    dict subclass would otherwise carry a __dict__ of its own, and the
    labeller reads full, exists and atoms in its innermost loops."""

    __slots__ = ("full", "successors", "ones", "exists", "atoms", "consts", "funcs")

    def __init__(self, successors: list[int], exists, atoms, consts, funcs, ones=1):
        self.full = ((1 << len(successors)) - 1) * ones
        self.successors = successors
        self.ones = ones
        self.exists = exists
        self.atoms = atoms
        self.consts = consts
        self.funcs = funcs

    def __missing__(self, s: int) -> int:
        mask = 0
        for i, succ in enumerate(self.successors):
            kept = self.ones
            for j in range(succ.bit_length()):
                if succ >> j & 1:
                    kept &= s >> j
            mask |= kept << i
        self[s] = mask
        return mask

    def lane(self, bit):
        """The one-lane view of the lane whose first world is this bit."""
        full = self.full // self.ones
        masks = ({k: m // bit & full for k, m in d.items()} for d in (self.exists, self.atoms))
        return _View(self.successors, *masks, self.consts, self.funcs)


def _labeller(formula: fml.Formula):
    """Compile a formula once into label(view, assignment=None), the mask
    of the worlds where it holds: bottom-up labelling, each subformula
    labelled over all worlds at once.

    Variables and constants live in the slots of one list, each
    quantifier with a slot of its own, each free variable and constant
    with one filled once per label from the assignment and the view.  So
    an atom over variables and constants builds its key straight from the
    slots.  Nothing short-circuits: every atom is evaluated under every
    binding of the variables above it, and every quantifier fold visits
    every individual, whatever the worlds it exists at.  So an
    uninterpreted symbol or a variable without a value raises wherever it
    occurs, and the atoms a label reads depend on the constants, the
    functions and the assignment only, never on the frame, the existence
    masks or the atom values; the search relies on this to fill only the
    atoms read.
    """
    free: dict[str, int] = {}
    constants: dict[str, int] = {}
    slots = itertools.count()
    root = _compile(formula, {}, (free, constants, slots))
    size = next(slots)

    def label(view: _View, assignment=None) -> int:
        try:
            env = [None] * size + [*map(view.consts.__getitem__, reversed(constants))]
        except KeyError as missing:
            raise UnknownSymbolError(missing.args[0]) from None
        for name, slot in free.items():
            if name not in (assignment or ()):
                raise UnboundVariableError(name)
            env[slot] = assignment[name]
        return root(view, env)

    return label


# _labeller's walkers, module level and called by name as _eval is: one
# that calls itself through its closure cell would be a reference cycle.
# known holds the free variables' and the constants' slots and the count
# that hands out new ones
def _held(t: fml.Term, scope, known):
    """The slot of a variable or a constant, None for other terms."""
    free, constants, slots = known
    if isinstance(t, fml.Constant):
        # constants take the slots from the end: env[-1] is the first
        return constants.setdefault(t.name, -1 - len(constants))
    if not isinstance(t, fml.Variable):
        return None
    names = scope if t.name in scope else free
    if t.name not in names:
        names[t.name] = next(slots)
    return names[t.name]


def _term(t: fml.Term, scope, known):
    slot = _held(t, scope, known)
    if slot is not None:
        return lambda v, env: env[slot]
    name = t.name
    if isinstance(t, fml.FunctionApp):
        args = [_term(a, scope, known) for a in t.args]

        def apply(v, env):
            try:
                return v.funcs[(name, tuple(a(v, env) for a in args))]
            except KeyError:
                raise UnknownSymbolError(name) from None

        return apply
    raise TypeError(f"not a term: {t!r}")


def _compile(f: fml.Formula, scope, known):
    if isinstance(f, fml.Atom):
        pred = f.pred
        keyed = [_held(a, scope, known) for a in f.args]
        if None not in keyed:
            # variables and constants: the key straight from their slots
            if len(keyed) == 1:
                slot = keyed[0]
                return lambda v, env: v.atoms.get((pred, env[slot]), 0)
            if not keyed:
                key = (pred,)
                return lambda v, env: v.atoms.get(key, 0)
            values = operator.itemgetter(*keyed)
            return lambda v, env: v.atoms.get((pred, *values(env)), 0)
        args = [_term(a, scope, known) for a in f.args]
        return lambda v, env: v.atoms.get((pred, *[a(v, env) for a in args]), 0)
    if isinstance(f, fml.Not):
        body = _compile(f.body, scope, known)
        return lambda v, env: v.full ^ body(v, env)
    if isinstance(f, (fml.And, fml.Or, fml.Implies)):
        left, right = _compile(f.left, scope, known), _compile(f.right, scope, known)
        if isinstance(f, fml.And):
            return lambda v, env: left(v, env) & right(v, env)
        if isinstance(f, fml.Or):
            return lambda v, env: left(v, env) | right(v, env)
        return lambda v, env: (v.full ^ left(v, env)) | right(v, env)
    if isinstance(f, fml.Box):
        body = _compile(f.body, scope, known)
        return lambda v, env: v[body(v, env)]
    if isinstance(f, fml.Dia):
        body = _compile(f.body, scope, known)
        return lambda v, env: v.full ^ v[v.full ^ body(v, env)]
    if isinstance(f, (fml.Forall, fml.Exists)):
        *_, slots = known
        slot = next(slots)
        body = _compile(f.body, {**scope, f.var: slot}, known)
        if isinstance(f, fml.Forall):

            def forall(v, env):
                out = full = v.full
                for x, there in v.exists.items():
                    env[slot] = x
                    out &= body(v, env) | (full ^ there)
                return out

            return forall

        def exists(v, env):
            out = 0
            for x, there in v.exists.items():
                env[slot] = x
                out |= body(v, env) & there
            return out

        return exists
    raise TypeError(f"not a formula: {f!r}")


def label_fml(model, formula: fml.Formula, assignment=None) -> int:
    """The worlds where a formula holds under an assignment of its free
    variables, as a mask: bit i stands for model.worlds[i].

    Boxes quantify over accessible worlds, individual quantifiers over the
    domain of each world; atoms are evaluated over the full universe.
    Every atom is evaluated, so an uninterpreted symbol or an unassigned
    variable raises even where its value could not matter.
    """
    return _labeller(formula)(model.view, assignment)


def eval_fml(model, world: str, formula: fml.Formula, assignment=None) -> bool:
    """Truth of a formula at one world: that world's bit of label_fml."""
    return bool(label_fml(model, formula, assignment) >> model.worlds.index(world) & 1)


# the relation constants of all logics, by name: a model's frame is their value
_RELATIONS = {rel.name: rel for rel in map(embedding.rel_const, embedding.Logic)}
_TRUTH_VALUES = (False, True)


def _peel(t: hol.Type) -> tuple[list[hol.Type], hol.Type]:
    args = []
    while isinstance(t, hol.ArrowType):
        args.append(t.arg)
        t = t.result
    return args, t


def _curried(arity: int, finish, acc=()):
    """finish(args) once there are arity args, the ones after acc taken one per call."""
    if len(acc) == arity:
        return finish(acc)
    return lambda v: _curried(arity, finish, acc + (v,))


def _const_value(model, const: hol.Const):
    # names are compared first: this runs for every constant evaluated
    name, guard = const.name, embedding.EXISTS_IN_WORLD
    if name == guard.name and const == guard:
        return _curried(2, lambda a: a[0] in model.dom[a[1]])
    if _RELATIONS.get(name) == const:
        return _curried(2, lambda a: (a[0], a[1]) in model.rel)
    args, result = _peel(const.type)
    if const.type == hol.INDIV:
        try:
            return model.consts[name]
        except KeyError:
            raise UnknownSymbolError(name) from None
    if result == hol.INDIV and all(a == hol.INDIV for a in args):

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
        k = len(args) - 1
        return _curried(len(args), lambda a: a[:k] in model.preds.get((name, a[k]), _EMPTY))
    raise UnknownSymbolError(name)


def eval_hol(model, term: hol.Term, environment=None):
    """Evaluate a beta-normal, definition-free HOL term over the model.

    Mu quantifiers range over the universe, $i quantifiers over the
    worlds; lambdas become Python functions, so terms of function type
    evaluate to callables.  Quantification over a function type raises
    NonFiniteTypeError (the embedding never produces one after expansion).
    """

    return _eval(model, term, dict(environment or ()))


# module-level and called by name, never through a closure of their own: a
# function that calls itself through its closure cell is a reference cycle,
# which would keep the model it holds until the cycle collector runs
def _domain(model, t: hol.Type):
    if t == hol.TRUTH:
        return _TRUTH_VALUES
    if t == hol.WORLD:
        return model.worlds
    if t == hol.INDIV:
        return model.universe
    raise NonFiniteTypeError(hol.print_type(t))


def _eval(model, t: hol.Term, env):
    if isinstance(t, hol.Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariableError(t.name) from None
    if isinstance(t, hol.Const):
        return _const_value(model, t)
    if isinstance(t, hol.App):
        return _eval(model, t.fun, env)(_eval(model, t.arg, env))
    if isinstance(t, hol.Lambda):
        return lambda v: _eval(model, t.body, {**env, t.var: v})
    if isinstance(t, hol.Forall):
        return all(_eval(model, t.body, {**env, t.var: v}) for v in _domain(model, t.var_type))
    if isinstance(t, hol.Exists):
        return any(_eval(model, t.body, {**env, t.var: v}) for v in _domain(model, t.var_type))
    if isinstance(t, hol.Not):
        return not _eval(model, t.body, env)
    if isinstance(t, hol.And):
        return _eval(model, t.left, env) and _eval(model, t.right, env)
    if isinstance(t, hol.Or):
        return _eval(model, t.left, env) or _eval(model, t.right, env)
    if isinstance(t, hol.Implies):
        return not _eval(model, t.left, env) or _eval(model, t.right, env)
    raise TypeError(f"not a term: {t!r}")


def frame_violations(model, logic: embedding.Logic) -> tuple[str, ...]:
    """Violation messages, one per offending world or pair; empty if none."""
    return tuple(_frame_faults(model.worlds, model.view.successors, logic))


def check_frame(model, logic: embedding.Logic) -> bool:
    return not frame_violations(model, logic)


def _domain_faults(worlds, successors, exists, consts, funcs, domain, ones=1):
    """The domain clauses over successor and existence masks, in every
    lane at once: bit c*n + i of a mask is worlds[i] in lane c, and ones
    has bit c*n of each lane c set, so a model is the one lane of ones=1.
    Yields (lanes, message) whenever lanes, the mask of the lanes (bit
    c*n for lane c) that fail a clause at a world or a related pair, is
    nonzero: under constant domains the constant clause per world; else
    the non-emptiness, designation and closure clauses per world, then,
    under cumulative domains, the cumulative clause per related pair in
    world-name order, reported for the least individual lost along it."""
    if domain is DomainCondition.CONSTANT:
        everyone = functools.reduce(int.__and__, exists.values())
        for i, w in enumerate(worlds):
            if lanes := ~everyone >> i & ones:
                yield lanes, f"not constant: dom({w}) differs from the universe"
        return
    somebody = functools.reduce(int.__or__, exists.values(), 0)
    for i, w in enumerate(worlds):
        if lanes := ~somebody >> i & ones:
            yield lanes, f"non-emptiness violated: dom({w}) is empty"
    for name in sorted(consts):
        val = consts[name]
        for i, w in enumerate(worlds):
            if lanes := ~exists[val] >> i & ones:
                yield lanes, f"undesignated constant: {name} = {val} is not in dom({w})"
    for name, args in sorted(funcs):
        val = funcs[(name, args)]
        inside = ((1 << len(worlds)) - 1) * ones
        for a in args:
            inside &= exists[a]
        for i, w in enumerate(worlds):
            if lanes := (inside & ~exists[val]) >> i & ones:
                yield lanes, f"unclosed function: {name}({','.join(args)}) = {val} leaves dom({w})"
    if domain is not DomainCondition.CUMULATIVE:
        return
    names = sorted(exists)
    for u, v in _pairs(worlds, successors):
        a, b, left = worlds[u], worlds[v], ones
        for x in names:
            if lanes := exists[x] >> u & ~exists[x] >> v & left:
                left ^= lanes
                yield lanes, f"not cumulative: {x} exists at {a} but not at {b} despite {a}>{b}"


def domain_violations(model, domain: DomainCondition) -> tuple[str, ...]:
    """Violation messages for a domain condition; empty if the model fits.

    Constant requires dom(w) = universe everywhere.  Varying requires
    nonempty domains, constants that exist in every world, and function
    values that stay inside any domain their arguments come from.
    Cumulative adds monotonicity of domains along the relation.
    """
    view = model.view
    faults = _domain_faults(
        model.worlds, view.successors, view.exists, view.consts, view.funcs, domain
    )
    return tuple(message for _, message in faults)


def check_domains(model, domain: DomainCondition) -> bool:
    return not domain_violations(model, domain)


def countermodel_violations(
    problem: fml.Problem, config: TranslationConfig, countermodel: Countermodel
) -> tuple[str, ...]:
    """Why a model is not a countermodel of the problem: its frame and
    domain violations, then each non-conjecture unit false at some world,
    then the conjecture if it holds at the witness; empty if it is one.
    Every symbol of the problem must be interpreted, as for label_fml."""
    conjecture = problem.conjecture()
    if conjecture is None:
        raise NoConjectureError("the problem has no conjecture to refute")
    model, witness = countermodel.model, countermodel.world
    faults = [*frame_violations(model, config.logic), *domain_violations(model, config.domain)]
    view = model.view
    for unit in problem.units:
        if unit.role != "conjecture":
            false = view.full ^ _labeller(unit.formula)(view)
            if false:
                where = " ".join(w for i, w in enumerate(model.worlds) if false >> i & 1)
                faults.append(f"{unit.role} {unit.name} is false at {where}")
    if witness not in model.worlds:
        faults.append(f"witness {witness} is not a world of the model")
    elif _labeller(conjecture.formula)(view) >> model.worlds.index(witness) & 1:
        faults.append(f"conjecture {conjecture.name} holds at the witness {witness}")
    return tuple(faults)


def correspondence_check(
    model, formula: fml.Formula, config: TranslationConfig, *, truth: int | None = None
) -> bool:
    """Do the modal and the embedded reading agree at every world?

    The formula must be closed, and its symbols must pass
    embedding.check_names: a reserved name would be read as the
    embedding's own on the HOL side.  Its embedding is expanded to a
    definition-free beta-normal term of type $i > $o and evaluated over
    the model; the result must equal label_fml world by world.  A caller
    that has already labelled the formula passes the mask as ``truth``.
    """
    infrastructure = hol.Problem(embedding.connective_definitions(config))
    expanded = hol.expand_definitions(infrastructure, embedding.embed_formula(formula, config))
    lifted = eval_hol(model, expanded)
    if truth is None:
        truth = label_fml(model, formula)
    return all(bool(truth >> i & 1) == lifted(w) for i, w in enumerate(model.worlds))


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    max_individuals: int
    time_budget: float | None = None

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_individuals < 1:
            raise ValueError("search bounds must be at least 1")
        if self.time_budget is not None and not self.time_budget > 0:
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


class _Reads(dict):
    """An atoms table that records each key read from it: get, the
    labeller's only read, enters the key with its default, so every atom
    reads as false and the table's keys end up as the atoms read."""

    get = dict.setdefault


def _read_slots(worlds, universe, consts, funcs, units, slots) -> list:
    """The slots, in their order, that labelling the units reads under
    these constants and functions.  One labelling pass on any frame and
    any existence masks tells: the labeller's reads depend on nothing
    else (see _labeller).  Without slots there is nothing to record."""
    if not slots:
        return []
    view = _View([0] * len(worlds), dict.fromkeys(universe, 0), _Reads(), consts, funcs)
    for label in units:
        label(view)
    return [s for s in slots if s in view.atoms]


def _dead(worlds, domain, successors=()) -> int:
    """The mask of the existence vectors an individual may not take under
    the constant and cumulative clauses, which speak of one individual at
    a time: bit v*n is set where they fail vector v (a world mask).  One
    _domain_faults pass over 2^n probe lanes, in lane v a d1 existing at
    the worlds of v beside a d0 existing everywhere, so that non-emptiness
    holds and the clauses on one individual decide."""
    n = len(worlds)
    every = sum(1 << n * v for v in range(1 << n))
    probe = {"d0": ((1 << n) - 1) * every, "d1": sum(v << n * v for v in range(1 << n))}
    faults = _domain_faults(worlds, successors, probe, {}, {}, domain, every)
    return functools.reduce(int.__or__, (lanes for lanes, _ in faults), 0)


# without the cumulative clause the frame does not matter: once per process
# per world count and domain condition
_dead_anywhere = functools.lru_cache(maxsize=None)(_dead)


def _search(worlds, frames, universe, sig, assumptions, goal, domain, tick):
    """First model over these worlds and individuals, on one of the frames
    (each rooted at worlds[0]), that refutes the goal there; None if there
    is none.  The goal and the assumptions are labellers: one candidate is
    one lane of a packed view at one fill, and only the winner becomes a
    KripkeModel.  tick is called at each check point and may raise.

    The constant and cumulative clauses speak of one individual at a time,
    so they decide which existence vectors an individual may take.  _dead
    finds them, once per process for each world count and domain condition
    or, under cumulative domains, once per frame, and the search asks
    _lanes for other packed behaviours only when they change; _lanes keeps
    them per process, so later sizes and searches replay their chunks.
    Packed lanes so meet those clauses; the lanes that fail a
    varying-domain clause are masked once per chunk and choice, before
    any labelling pass, and a chunk with no lane left is not labelled.

    Only the slots that the units read are filled.  The labeller reads
    the same atoms whatever the frame, the existence masks and the atom
    values, so one labelling pass per frame and choice of constants and
    functions finds them; only the packed behaviours outlive a frame.  An
    unread slot stays absent, which reads as false, and changing it
    changes no label: the hits are closed under changing unread slots,
    and the first hit of the full product, which has every unread slot
    false, is the first hit here."""
    unary = [p for p, k in sig.predicates.items() if k == 1]
    # each other predicate takes one world mask per tuple of arguments
    slots = [
        (p, *args)
        for p, k in sig.predicates.items()
        if k != 1
        for args in itertools.product(universe, repeat=k)
    ]
    n = len(worlds)
    # one cell per constant, then per function entry in argument order: a
    # choice is a value per cell, from a lazy product, never listed (a
    # ternary function at 3 individuals has 3^27 tables)
    entries = [
        (name, args)
        for name, arity in sig.functions.items()
        for args in itertools.product(universe, repeat=arity)
    ]
    units = (goal, *assumptions)
    chunks = dead = None
    for successors in frames:
        # the vectors depend on the frame through the cumulative clause only
        if domain is DomainCondition.CUMULATIVE:
            now = _dead(worlds, domain, successors)
        elif dead is None:
            now = _dead_anywhere(worlds, domain)
        if now != dead:
            dead, chunks = now, _lanes(worlds, universe, unary, now, tick)
        choices = itertools.product(universe, repeat=len(sig.constants) + len(entries))
        for values in choices:
            tick()
            consts = dict(zip(sig.constants, values))
            funcs = dict(zip(entries, values[len(sig.constants):]))
            read = _read_slots(worlds, universe, consts, funcs, units, slots)
            for ones, exists, atoms in chunks():
                view = _View(successors, exists, dict(atoms), consts, funcs, ones)
                # the lanes that can still win: those that meet the
                # varying-domain clauses, masked before any labelling pass
                # (every lane meets them under constant domains), then only
                # those below a hit
                alive, winner = ones, None
                if domain is not DomainCondition.CONSTANT:
                    varying = DomainCondition.VARYING
                    for lanes, _ in _domain_faults(
                        worlds, successors, exists, consts, funcs, varying, ones
                    ):
                        alive &= ~lanes
                # the least lane with a hit, at its first hit: lanes run in
                # candidate order, and a fill is the same in every lane
                for fill in itertools.product(range(0, ones << n, ones), repeat=len(read)):
                    tick()
                    if not alive:
                        break
                    view.atoms.update(zip(read, fill))
                    hits = alive & ~goal(view)
                    for assumption in assumptions if hits else ():
                        holds = assumption(view)
                        for i in range(n):
                            hits &= holds >> i
                    if hits:
                        low = hits & -hits
                        # only a winner is read out whole, at its hit fill
                        alive &= low - 1
                        winner = view.lane(low)
                if winner is not None:
                    return _model_of(worlds, successors, universe, winner)
    return None


def _model_of(worlds, successors, universe, view) -> KripkeModel:
    """A candidate view as a model, normalized and validated by __init__."""
    rel = [(worlds[u], worlds[v]) for u, v in _pairs(worlds, successors)]
    dom = {
        w: [x for x, there in view.exists.items() if there >> i & 1]
        for i, w in enumerate(worlds)
    }
    preds: dict[tuple[str, str], set] = {}
    for (pred, *args), mask in view.atoms.items():
        for i, w in enumerate(worlds):
            if mask >> i & 1:
                preds.setdefault((pred, w), set()).add(tuple(args))
    return KripkeModel(worlds, rel, universe, dom, view.consts, view.funcs, preds)


def find_countermodel(
    problem: fml.Problem, config: TranslationConfig, bounds: SearchBounds
) -> SearchResult:
    """Bounded search for a model refuting the problem's conjecture.

    Enumerates sizes smallest first (worlds before individuals); a hit
    makes every non-conjecture unit true at every world and the
    conjecture false at the first world, w1.  One enumerator walks the
    relations that satisfy the frame conditions, then builds the model
    individual by individual (existence and unary predicates per world),
    then constants and functions, one lazy product with a cell per
    constant and per function entry, then the other predicate extensions.
    Only frames rooted at w1, with every world reachable from it, are
    enumerated: a model refuting the conjecture at w restricts to the
    submodel generated by w, which keeps every frame and domain condition
    and every verdict there, so neither the answer nor the smallest size
    changes.  Of the frames that a renaming of w2..wn maps onto each
    other, only the one with the least mask is walked, and the frames of
    each world count are built once per process and logic (frames._rooted):
    the first frame with a hit is always the least of its class, so the
    printed model does not change either.  Individuals are enumerated up
    to renaming, whatever the signature: their behaviors are taken as a
    multiset, and everything else is enumerated in full over it.  A
    behavior takes only the existence vectors that the frame admits under
    the constant and cumulative clauses, which speak of one individual at
    a time.  The behaviors packed into lanes are kept per process, like
    the frames, by worlds, individuals, unary predicate names and admitted
    vectors (frames._lanes, within a fixed bound), so a later size, frame
    or search with the same key replays the chunks packed before.  Each
    unit is compiled once into a labeller, and a candidate is tested by
    labelling: the conjecture's mask must miss w1 and every assumption's
    must hold every world.  Candidates that share a frame and a choice
    of constants and functions are labelled together, one per lane, in
    chunks of at most _WIDTH; the lanes that fail the
    varying-domain clauses (non-emptiness, designation and closure) are
    masked out once per chunk and choice, before labelling, and the least
    hit lane of the first chunk with a hit, at its first hit fill, is the
    candidate the one-at-a-time order meets first.
    Predicates other than unary ones are filled only at the argument
    tuples the units read, as in MACE-style model finders: the labeller
    never short-circuits and its quantifiers visit every individual, so
    once constants and functions are chosen the atoms read are fixed, and
    an atom nobody reads can change no verdict; it is left false.  This
    changes neither the answer, nor the smallest size, nor the model
    printed.
    Returns the first countermodel found, NoCountermodelWithinBounds
    after exhausting the bounds, or Timeout once the time budget runs out.
    """
    conjecture = problem.conjecture()
    if conjecture is None:
        raise NoConjectureError("the problem has no conjecture to refute")
    sig = problem.signature
    assumptions = tuple(_labeller(u.formula) for u in problem.units if u.role != "conjecture")
    goal = _labeller(conjecture.formula)
    deadline = None if bounds.time_budget is None else time.monotonic() + bounds.time_budget
    tick = functools.partial(_check_deadline, deadline)
    try:
        for n_worlds in range(1, bounds.max_worlds + 1):
            worlds = tuple(f"w{i}" for i in range(1, n_worlds + 1))
            frames = _rooted(n_worlds, config.logic, tick)
            for n_indiv in range(1, bounds.max_individuals + 1):
                universe = tuple(f"d{i}" for i in range(1, n_indiv + 1))
                model = _search(
                    worlds, frames, universe, sig, assumptions, goal, config.domain, tick
                )
                if model is not None:
                    found = Countermodel(model, worlds[0])
                    if faults := countermodel_violations(problem, config, found):
                        raise AssertionError("internal error: " + "; ".join(faults))
                    return found
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
    return KripkeModel(worlds, rel, universe, dom, consts, funcs, preds)


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
