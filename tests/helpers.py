"""Seeded random generators shared across the test modules.

Everything takes an explicit random.Random so failures reproduce from the
seed alone.  Models are generated to satisfy the domain condition they
are asked for (including constant designation and function closure under
varying and cumulative domains), so they can be fed straight into
correspondence checks and the eval subcommand.

reference_eval_fml is the plain per-world recursive evaluator that the
labelling evaluator (kripke.label_fml, kripke.eval_fml) is tested against.
reference_countermodel_faults re-reads a found countermodel without the
labeller that found it: through reference_eval_fml and through eval_hol
on the whole embedded problem.
brute_force_countermodel_size is the plain reference the bounded search
is tested against: it walks every relation, domain and interpretation,
with no rooting and no symmetry reduction, and evaluates with
reference_eval_fml.  reference_beta_normalize and
reference_expand_definitions are plain normal-order reduction by
capture-avoiding substitution, the reference that hol.beta_normalize and
hol.expand_definitions (evaluation and read-back) are tested against.
reference_tokenize is the qmf lexer that computed every token's line and
column as it went, the reference for the positions that qmf computes from
a token's offset when it raises; reference_wrap is the word-by-word line
breaking that thf._wrap is tested against.
"""

import itertools
import random
import re
from types import SimpleNamespace

from fml2hol import embedding, fml, hol, kripke, qmf
from fml2hol.embedding import DomainCondition, Logic

INDIVIDUALS = ("a", "b", "c")
_VARS = ("X", "Y", "Z")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_signature(r: random.Random) -> fml.Signature:
    predicates = {}
    for name in ("p", "q")[: r.randint(1, 2)]:
        predicates[name] = r.randint(0, 2)
    functions = {"g": 1} if r.random() < 0.5 else {}
    constants = ("c",) if r.random() < 0.5 else ()
    return fml.Signature(predicates, functions, constants)


def random_term(r: random.Random, sig: fml.Signature, scope, depth: int = 1) -> fml.Term:
    options = []
    if scope:
        options.extend(["var", "var"])
    if sig.constants:
        options.append("const")
    if sig.functions and depth > 0:
        options.append("fun")
    kind = r.choice(options)
    if kind == "var":
        return fml.Variable(r.choice(scope))
    if kind == "const":
        return fml.Constant(r.choice(sig.constants))
    name = r.choice(sorted(sig.functions))
    arity = sig.functions[name]
    return fml.FunctionApp(
        name, tuple(random_term(r, sig, scope, depth - 1) for _ in range(arity))
    )


def random_formula(r: random.Random, sig: fml.Signature, depth: int, scope=()) -> fml.Formula:
    groundable = bool(scope or sig.constants)
    usable = [(p, k) for p, k in sig.predicates.items() if k == 0 or groundable]

    def atom():
        name, arity = r.choice(usable)
        return fml.Atom(name, tuple(random_term(r, sig, scope) for _ in range(arity)))

    if depth <= 0 and usable:
        return atom()
    choices = []
    if usable:
        choices += ["atom"] * 3
    if depth > 0:
        choices += ["not", "and", "or", "implies", "box", "dia", "forall", "exists"]
    else:
        choices += ["forall", "exists"]
    kind = r.choice(choices)
    if kind == "atom":
        return atom()
    if kind == "not":
        return fml.Not(random_formula(r, sig, depth - 1, scope))
    if kind == "box":
        return fml.Box(random_formula(r, sig, depth - 1, scope))
    if kind == "dia":
        return fml.Dia(random_formula(r, sig, depth - 1, scope))
    if kind in ("and", "or", "implies"):
        cls = {"and": fml.And, "or": fml.Or, "implies": fml.Implies}[kind]
        return cls(
            random_formula(r, sig, depth - 1, scope),
            random_formula(r, sig, depth - 1, scope),
        )
    cls = fml.Forall if kind == "forall" else fml.Exists
    var = r.choice(_VARS)
    return cls(var, random_formula(r, sig, depth - 1, scope + (var,)))


def random_problem(r: random.Random, max_units: int = 3, depth: int = 3) -> fml.Problem:
    sig = random_signature(r)
    count = r.randint(1, max_units)
    units = []
    for i in range(count):
        if i == count - 1 and r.random() < 0.7:
            role = "conjecture"
        else:
            role = r.choice(("axiom", "hypothesis", "definition"))
        units.append(
            fml.AnnotatedFormula(f"u{i + 1}", role, random_formula(r, sig, r.randint(0, depth)))
        )
    return fml.Problem(tuple(units))


def random_model(
    r: random.Random,
    sig: fml.Signature,
    domain: DomainCondition,
    max_worlds: int = 3,
    max_individuals: int = 3,
) -> kripke.KripkeModel:
    n = r.randint(1, max_worlds)
    m = r.randint(1, max_individuals)
    worlds = tuple(f"w{i}" for i in range(1, n + 1))
    universe = INDIVIDUALS[:m]
    rel = frozenset((u, v) for u in worlds for v in worlds if r.random() < 0.5)

    if domain is DomainCondition.CONSTANT:
        dom = {w: frozenset(universe) for w in worlds}
    else:
        # one core individual exists everywhere, keeping domains nonempty
        # and giving constants and functions a safe denotation
        core = r.choice(universe)
        dom = {
            w: frozenset({core} | {x for x in universe if r.random() < 0.5})
            for w in worlds
        }
        if domain is DomainCondition.CUMULATIVE:
            changed = True
            while changed:
                changed = False
                for u, v in rel:
                    if not dom[u] <= dom[v]:
                        dom[v] = dom[v] | dom[u]
                        changed = True

    shared = frozenset(universe).intersection(*dom.values())
    consts = {}
    for name in sig.constants:
        pool = universe if domain is DomainCondition.CONSTANT else sorted(shared)
        consts[name] = r.choice(pool)

    funcs = {}
    for name, arity in sig.functions.items():
        for args in itertools.product(universe, repeat=arity):
            if domain is DomainCondition.CONSTANT:
                allowed = list(universe)
            else:
                containing = [dom[w] for w in worlds if set(args) <= dom[w]]
                if containing:
                    allowed = sorted(frozenset(universe).intersection(*containing))
                else:
                    allowed = list(universe)
            funcs[(name, args)] = r.choice(allowed)

    preds = {}
    for name, arity in sig.predicates.items():
        for w in worlds:
            ext = frozenset(
                t for t in itertools.product(universe, repeat=arity) if r.random() < 0.5
            )
            if ext:
                preds[(name, w)] = ext
    return kripke.KripkeModel(worlds, rel, universe, dom, consts, funcs, preds)


def _reference_term(model, term: fml.Term, assignment) -> str:
    if isinstance(term, fml.Variable):
        try:
            return assignment[term.name]
        except KeyError:
            raise kripke.UnboundVariableError(term.name) from None
    if isinstance(term, fml.Constant):
        try:
            return model.consts[term.name]
        except KeyError:
            raise kripke.UnknownSymbolError(term.name) from None
    if isinstance(term, fml.FunctionApp):
        args = tuple(_reference_term(model, a, assignment) for a in term.args)
        try:
            return model.funcs[(term.name, args)]
        except KeyError:
            raise kripke.UnknownSymbolError(term.name) from None
    raise TypeError(f"not a term: {term!r}")


def reference_eval_fml(model, world: str, formula: fml.Formula, assignment=None) -> bool:
    """Truth of a formula at one world, by recursion over the formula at
    that world: boxes over accessible worlds, quantifiers over dom(w),
    atoms over the full universe.  Connectives short-circuit."""
    succ = {w: [] for w in model.worlds}
    for u, v in model.rel:
        succ[u].append(v)

    def go(w, f, a) -> bool:
        if isinstance(f, fml.Atom):
            args = tuple(_reference_term(model, t, a) for t in f.args)
            return args in model.preds.get((f.pred, w), frozenset())
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
            return all(go(w, f.body, {**a, f.var: x}) for x in model.universe if x in model.dom[w])
        if isinstance(f, fml.Exists):
            return any(go(w, f.body, {**a, f.var: x}) for x in model.universe if x in model.dom[w])
        raise TypeError(f"not a formula: {f!r}")

    return go(world, formula, {} if assignment is None else assignment)


def reference_countermodel_faults(problem, config, countermodel) -> list[str]:
    """kripke.countermodel_violations' question, asked without the labeller.

    Through reference_eval_fml: every non-conjecture unit true at every
    world, the conjecture false at the witness.  Through eval_hol on the
    embedded problem, each unit expanded over its definitions: every axiom
    and hypothesis true (the frame, domain, designation, closure and
    cumulative axioms among them), the prove unit false, and the
    conjecture's embedding false at the witness."""
    model, witness = countermodel.model, countermodel.world
    faults = []
    for unit in problem.units:
        if unit.role == "conjecture":
            if reference_eval_fml(model, witness, unit.formula):
                faults.append(f"{unit.name} true at the witness {witness} (reference_eval_fml)")
        elif not all(reference_eval_fml(model, w, unit.formula) for w in model.worlds):
            faults.append(f"{unit.name} false at some world (reference_eval_fml)")
    embedded = embedding.embed_problem(problem, config)
    for unit in embedded.units:
        if unit.kind in ("axiom", "hypothesis", "conjecture"):
            value = kripke.eval_hol(model, hol.expand_definitions(embedded, unit.term))
            if value != (unit.kind != "conjecture"):
                faults.append(f"{unit.kind} {unit.name} is {value} (eval_hol)")
    image = embedding.embed_formula(problem.conjecture().formula, config)
    if kripke.eval_hol(model, hol.expand_definitions(embedded, image))(witness):
        faults.append(f"embedded conjecture true at the witness {witness} (eval_hol)")
    return faults


def all_relations(worlds):
    """Every relation over the worlds, one per bitmask over the pairs."""
    pairs = [(u, v) for u in worlds for v in worlds]
    for mask in range(2 ** len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def frame_oracle(worlds, rel) -> dict:
    """Does the relation meet each logic's frame conditions?  Read off the
    definitions of seriality, reflexivity, transitivity and symmetry."""
    serial = all(any((u, v) in rel for v in worlds) for u in worlds)
    reflexive = all((w, w) in rel for w in worlds)
    transitive = all(
        (u, w) in rel
        for u in worlds for v in worlds for w in worlds
        if (u, v) in rel and (v, w) in rel
    )
    symmetric = all((v, u) in rel for u in worlds for v in worlds if (u, v) in rel)
    return {
        Logic.K: True,
        Logic.K4: transitive,
        Logic.D: serial,
        Logic.D4: serial and transitive,
        Logic.T: reflexive,
        Logic.S4: reflexive and transitive,
        Logic.S5: reflexive and transitive and symmetric,
    }


def _subsets(items):
    items = list(items)
    return [frozenset(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


def _refutable_at(worlds, universe, sig, assumptions, goal, config) -> bool:
    # the checkers read a KripkeModel's view; reference_eval_fml reads the
    # names of a plain namespace
    full = {w: frozenset(universe) for w in worlds}
    const_choices = [
        dict(zip(sig.constants, values))
        for values in itertools.product(universe, repeat=len(sig.constants))
    ]
    func_choices = [{}]
    for name, arity in sig.functions.items():
        entries = [(name, args) for args in itertools.product(universe, repeat=arity)]
        func_choices = [
            {**funcs, **dict(zip(entries, values))}
            for funcs in func_choices
            for values in itertools.product(universe, repeat=len(entries))
        ]
    slots = [(p, w) for p in sig.predicates for w in worlds]
    slot_choices = [
        _subsets(itertools.product(universe, repeat=sig.predicates[p])) for p, _ in slots
    ]
    for rel in all_relations(worlds):
        if not kripke.check_frame(kripke.KripkeModel(worlds, rel, universe, full), config.logic):
            continue
        for doms in itertools.product(_subsets(universe), repeat=len(worlds)):
            for consts in const_choices:
                for funcs in func_choices:
                    dom = dict(zip(worlds, doms))
                    checked = kripke.KripkeModel(worlds, rel, universe, dom, consts, funcs)
                    if not kripke.check_domains(checked, config.domain):
                        continue
                    model = SimpleNamespace(
                        worlds=worlds, rel=rel, universe=universe,
                        dom=dom, consts=consts, funcs=funcs,
                    )
                    for exts in itertools.product(*slot_choices):
                        model.preds = dict(zip(slots, exts))
                        if all(
                            reference_eval_fml(model, w, a) for a in assumptions for w in worlds
                        ) and not all(reference_eval_fml(model, w, goal) for w in worlds):
                            return True
    return False


def brute_force_countermodel_size(problem, config, max_worlds, max_individuals):
    """(worlds, individuals) of the smallest model, in find_countermodel's
    size order, that makes every assumption valid and the conjecture false
    at some world; None if there is none within the bounds."""
    sig = problem.signature
    assumptions = [u.formula for u in problem.units if u.role != "conjecture"]
    goal = problem.conjecture().formula
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        for m in range(1, max_individuals + 1):
            if _refutable_at(worlds, INDIVIDUALS[:m], sig, assumptions, goal, config):
                return n, m
    return None


_HOL_BINDERS = (hol.Lambda, hol.Forall, hol.Exists)
_HOL_CONNECTIVES = (hol.And, hol.Or, hol.Implies)


def free_var_names(term: hol.Term) -> set[str]:
    if isinstance(term, hol.Var):
        return {term.name}
    if isinstance(term, hol.Const):
        return set()
    if isinstance(term, hol.App):
        return free_var_names(term.fun) | free_var_names(term.arg)
    if isinstance(term, _HOL_BINDERS):
        return free_var_names(term.body) - {term.var}
    if isinstance(term, hol.Not):
        return free_var_names(term.body)
    if isinstance(term, _HOL_CONNECTIVES):
        return free_var_names(term.left) | free_var_names(term.right)
    raise TypeError(f"not a term: {term!r}")


def _fresh(base: str, avoid: set[str]) -> str:
    i = 0
    name = base
    while name in avoid:
        name = f"{base}{i}"
        i += 1
    return name


def substitute(term: hol.Term, mapping: dict[str, hol.Term]) -> hol.Term:
    """Replace free variables by terms, renaming binders to avoid capture."""
    if not mapping:
        return term
    if isinstance(term, hol.Var):
        return mapping.get(term.name, term)
    if isinstance(term, hol.Const):
        return term
    if isinstance(term, hol.App):
        return hol.App(substitute(term.fun, mapping), substitute(term.arg, mapping))
    if isinstance(term, hol.Not):
        return hol.Not(substitute(term.body, mapping))
    if isinstance(term, _HOL_CONNECTIVES):
        return type(term)(substitute(term.left, mapping), substitute(term.right, mapping))
    if isinstance(term, _HOL_BINDERS):
        live = {k: v for k, v in mapping.items() if k != term.var}
        live = {k: v for k, v in live.items() if k in free_var_names(term.body)}
        if not live:
            return term
        var, body = term.var, term.body
        value_frees = set().union(*(free_var_names(v) for v in live.values()))
        if var in value_frees:
            var = _fresh(var, value_frees | free_var_names(body) | set(live))
            body = substitute(body, {term.var: hol.Var(var, term.var_type)})
        return type(term)(var, term.var_type, substitute(body, live))
    raise TypeError(f"not a term: {term!r}")


def reference_beta_normalize(term: hol.Term) -> hol.Term:
    """Normal-order reduction by substitution: leftmost redex first."""
    if isinstance(term, hol.App):
        fun = reference_beta_normalize(term.fun)
        if isinstance(fun, hol.Lambda):
            return reference_beta_normalize(substitute(fun.body, {fun.var: term.arg}))
        return hol.App(fun, reference_beta_normalize(term.arg))
    if isinstance(term, _HOL_BINDERS):
        return type(term)(term.var, term.var_type, reference_beta_normalize(term.body))
    if isinstance(term, hol.Not):
        return hol.Not(reference_beta_normalize(term.body))
    if isinstance(term, _HOL_CONNECTIVES):
        return type(term)(
            reference_beta_normalize(term.left), reference_beta_normalize(term.right)
        )
    return term


def reference_expand_definitions(problem: hol.Problem, term: hol.Term) -> hol.Term:
    """Inline every defined constant, then reduce by substitution; the
    definitions must be acyclic."""
    defs = {u.symbol: u.term for u in problem.units if u.kind == "definition"}

    def inline(t: hol.Term) -> hol.Term:
        if isinstance(t, hol.Const):
            return inline(defs[t.name]) if t.name in defs else t
        if isinstance(t, hol.Var):
            return t
        if isinstance(t, hol.App):
            return hol.App(inline(t.fun), inline(t.arg))
        if isinstance(t, _HOL_BINDERS):
            return type(t)(t.var, t.var_type, inline(t.body))
        if isinstance(t, hol.Not):
            return hol.Not(inline(t.body))
        return type(t)(inline(t.left), inline(t.right))

    return reference_beta_normalize(inline(term))


_REFERENCE_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|%[^\n]*)+)"
    r"|(?P<upper>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<lower>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op><=>|<=|=>|#(?:box|dia)(?![a-zA-Z0-9_])|[()\[\],.:~&|!?])"
    r"|(?P<hash>#(?:[a-zA-Z][a-zA-Z0-9_]*)?)"
    r"|(?P<quoted>'[^']*')"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of text as (kind, text, line, column), an operator's
    kind being its text, ending in an 'eof' token; the first lexical
    error raises the qmf.ParseError the lexer raised for it.  Lines are
    counted in the whitespace between tokens only."""
    tokens = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN.finditer(text):
        kind, word, start = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            if "\n" in word:
                line += word.count("\n")
                line_start = text.rfind("\n", start, m.end()) + 1
            continue
        col = start - line_start + 1
        if kind == "op":
            kind = word
        elif kind == "hash":
            raise qmf.ParseError(qmf.Span(line, col), "'#box' or '#dia'", f"'{word}'")
        elif kind == "bad":
            if word == "'":
                raise qmf.ParseError(qmf.Span(line, col), "a closing quote", "end of input")
            raise qmf.ParseError(qmf.Span(line, col), "a token", repr(word))
        tokens.append((kind, word, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


def reference_wrap(line: str, width: int) -> str:
    """line broken at spaces, word by word: a word goes on the current
    line if the line stays within width, else it starts a new line
    indented by four spaces."""
    if len(line) <= width:
        return line
    words = line.split(" ")
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) <= width:
            lines[-1] += " " + word
        else:
            lines.append("    " + word)
    return "\n".join(lines)


_RANDOM_HOL_NAMES = ("X", "Y", "Z")
_RANDOM_HOL_ARGS = (hol.TRUTH, hol.INDIV, hol.fn(hol.INDIV, hol.TRUTH))


def random_hol_term(r: random.Random, ty: hol.Type, scope=None, depth: int = 4) -> hol.Term:
    r"""A random well-typed term of the given type, with beta redexes at
    the argument types $o, mu and mu > $o.  Binders take the names X, Y
    and Z, so they shadow one another; a name no binder in scope holds
    may occur free, so binders are also named like free variables, as in
    (\Y. \X. Y) X."""
    scope = {} if scope is None else scope
    leaves = [hol.Var(n, ty) for n in _RANDOM_HOL_NAMES if scope.get(n, ty) == ty]
    leaves.append(hol.Const("c", ty))
    if depth <= 0:
        return r.choice(leaves)
    kinds = ["leaf", "redex", "redex", "app"]
    if isinstance(ty, hol.ArrowType):
        kinds += ["lambda"] * 3
    elif ty == hol.TRUTH:
        kinds += ["connective", "not", "quantifier"]
    kind = r.choice(kinds)
    if kind == "leaf":
        return r.choice(leaves)
    if kind == "app":
        arg_type = r.choice(_RANDOM_HOL_ARGS)
        fun = random_hol_term(r, hol.ArrowType(arg_type, ty), scope, depth - 1)
        return hol.App(fun, random_hol_term(r, arg_type, scope, depth - 1))
    if kind == "not":
        return hol.Not(random_hol_term(r, ty, scope, depth - 1))
    if kind == "connective":
        cls = r.choice(_HOL_CONNECTIVES)
        return cls(*(random_hol_term(r, ty, scope, depth - 1) for _ in range(2)))
    var = r.choice(_RANDOM_HOL_NAMES)
    if kind == "quantifier":
        inner = {**scope, var: hol.INDIV}
        cls = r.choice((hol.Forall, hol.Exists))
        return cls(var, hol.INDIV, random_hol_term(r, ty, inner, depth - 1))
    if kind == "lambda":
        inner = {**scope, var: ty.arg}
        return hol.Lambda(var, ty.arg, random_hol_term(r, ty.result, inner, depth - 1))
    arg_type = r.choice(_RANDOM_HOL_ARGS)
    body = random_hol_term(r, ty, {**scope, var: arg_type}, depth - 1)
    return hol.App(hol.Lambda(var, arg_type, body), random_hol_term(r, arg_type, scope, depth - 1))
