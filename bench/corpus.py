"""Seeded input generators for the benchmark.

Everything here produces plain qmf text and fixture text from an explicit
``random.Random``; nothing imports the program or the test helpers, so
neither a change to fml2hol's printers nor an edit to ``tests/`` can shift
the corpus.  Formulas are nested tuples:

    ("atom", pred, (term, ...))      ("not", f)     ("box", f)   ("dia", f)
    ("and" | "or" | "implies", f, g)  ("forall" | "exists", var, f)

and terms are ("var", name), ("const", name) or ("fun", name, (term, ...)).
"""

from __future__ import annotations

import itertools
import random

LOGICS = ("k", "k4", "d", "d4", "t", "s4", "s5")
DOMAINS = ("const", "vary", "cumul")
CONFIGS = tuple(f"{logic}:{domain}" for logic in LOGICS for domain in DOMAINS)

FRAME_PROPERTIES = {
    "k": (),
    "k4": ("transitive",),
    "d": ("serial",),
    "d4": ("serial", "transitive"),
    "t": ("reflexive",),
    "s4": ("reflexive", "transitive"),
    "s5": ("reflexive", "transitive", "symmetric"),
}

INDIVIDUALS = ("a", "b", "c")
VARIABLES = ("X", "Y", "Z")

E1_TEXT = (
    "qmf(con,conjecture,( ( ! [X] : ( #box : ( f(X) ) ) )"
    " => ( #box : ( ! [X] : ( f(X) ) ) ) )).\n"
)

# Converse Barcan over a binary predicate and a constant: valid under
# constant domains, and it forces the generic enumerator (no profiles).
HARD_GENERIC_TEXT = (
    "qmf(con,conjecture,( ( ! [X] : ( #box : ( r(X,c) ) ) )"
    " => ( #box : ( ! [X] : ( r(X,c) ) ) ) )).\n"
)

# The mismatched fixture for E1: unary f gets a binary extension.
MISMATCHED_F_FIXTURE = (
    "worlds: w1 w2\nrel: w1>w2\nuniverse: a b\npred f @ w1: a,b\npred f @ w2: b,a\n"
)


def conjunction_text(n: int) -> str:
    return "qmf(con,conjecture,( " + " & ".join(["p"] * n) + " )).\n"


def negation_text(n: int) -> str:
    return "qmf(con,conjecture,( " + "~ " * n + "p )).\n"


# ---------------------------------------------------------------- formulas


def random_signature(r: random.Random) -> dict:
    """One or two predicates of arity 0-2, maybe a unary function g and a constant c."""
    preds = {name: r.randint(0, 2) for name in ("p", "q")[: r.randint(1, 2)]}
    funcs = {"g": 1} if r.random() < 0.5 else {}
    consts = ("c",) if r.random() < 0.5 else ()
    return {"preds": preds, "funcs": funcs, "consts": consts}


def random_term(r: random.Random, sig: dict, scope: tuple, depth: int = 1):
    options = ["var", "var"] if scope else []
    if sig["consts"]:
        options.append("const")
    if sig["funcs"] and depth > 0:
        options.append("fun")
    kind = r.choice(options)
    if kind == "var":
        return ("var", r.choice(scope))
    if kind == "const":
        return ("const", r.choice(sig["consts"]))
    name = r.choice(sorted(sig["funcs"]))
    return (
        "fun",
        name,
        tuple(random_term(r, sig, scope, depth - 1) for _ in range(sig["funcs"][name])),
    )


def random_formula(r: random.Random, sig: dict, depth: int, scope: tuple = ()):
    groundable = bool(scope or sig["consts"])
    usable = [(p, k) for p, k in sig["preds"].items() if k == 0 or groundable]

    def atom():
        name, arity = r.choice(usable)
        return ("atom", name, tuple(random_term(r, sig, scope) for _ in range(arity)))

    if depth <= 0 and usable:
        return atom()
    choices = ["atom"] * 3 if usable else []
    if depth > 0:
        choices += ["not", "and", "or", "implies", "box", "dia", "forall", "exists"]
    else:
        choices += ["forall", "exists"]
    kind = r.choice(choices)
    if kind == "atom":
        return atom()
    if kind in ("not", "box", "dia"):
        return (kind, random_formula(r, sig, depth - 1, scope))
    if kind in ("and", "or", "implies"):
        return (
            kind,
            random_formula(r, sig, depth - 1, scope),
            random_formula(r, sig, depth - 1, scope),
        )
    var = r.choice(VARIABLES)
    return (kind, var, random_formula(r, sig, depth - 1, scope + (var,)))


def random_units(r: random.Random, sig: dict, max_units: int, depth: int) -> list:
    """Units as (name, role, formula); the last is a conjecture with p = 0.7."""
    count = r.randint(1, max_units)
    units = []
    for i in range(count):
        if i == count - 1 and r.random() < 0.7:
            role = "conjecture"
        else:
            role = r.choice(("axiom", "hypothesis", "definition"))
        units.append((f"u{i + 1}", role, random_formula(r, sig, r.randint(0, depth))))
    return units


def term_text(t) -> str:
    if t[0] in ("var", "const"):
        return t[1]
    return t[1] + "(" + ",".join(term_text(a) for a in t[2]) + ")"


def formula_text(f) -> str:
    kind = f[0]
    if kind == "atom":
        return f[1] + ("(" + ",".join(term_text(a) for a in f[2]) + ")" if f[2] else "")
    if kind == "not":
        return f"~ ( {formula_text(f[1])} )"
    if kind in ("box", "dia"):
        return f"#{kind} : ( {formula_text(f[1])} )"
    if kind in ("forall", "exists"):
        return f"{'!' if kind == 'forall' else '?'} [{f[1]}] : ( {formula_text(f[2])} )"
    op = {"and": "&", "or": "|", "implies": "=>"}[kind]
    return f"( {formula_text(f[1])} ) {op} ( {formula_text(f[2])} )"


def problem_text(units) -> str:
    return "".join(f"qmf({name},{role},( {formula_text(f)} )).\n" for name, role, f in units)


def formula_depth(f) -> int:
    if f[0] == "atom":
        return 0
    return 1 + max(formula_depth(sub) for sub in f[1:] if isinstance(sub, tuple))


def used_symbols(units) -> dict:
    """Symbols the units actually use, as {'preds': {name: arity}, ...}."""
    preds, funcs, consts = {}, {}, set()

    def term(t):
        if t[0] == "const":
            consts.add(t[1])
        elif t[0] == "fun":
            funcs[t[1]] = len(t[2])
            for a in t[2]:
                term(a)

    def formula(f):
        if f[0] == "atom":
            preds[f[1]] = len(f[2])
            for a in f[2]:
                term(a)
        else:
            for sub in f[1:]:
                if isinstance(sub, tuple):
                    formula(sub)

    for _, _, f in units:
        formula(f)
    return {"preds": preds, "funcs": funcs, "consts": tuple(sorted(consts))}


def profile_eligible(units) -> bool:
    """Would the search enumerate individual profiles (no constants, no
    functions, predicates at most unary) rather than the generic space?"""
    sig = used_symbols(units)
    return not sig["consts"] and not sig["funcs"] and all(k <= 1 for k in sig["preds"].values())


def signature_kind(units) -> str:
    """The search path a problem takes, by the symbols it uses: "profile"
    when profile-eligible, else the generic features present."""
    if profile_eligible(units):
        return "profile"
    sig = used_symbols(units)
    features = [name for name, present in (
        ("binary", any(k == 2 for k in sig["preds"].values())),
        ("const", bool(sig["consts"])),
        ("fun", bool(sig["funcs"])),
    ) if present]
    return "+".join(features)


# ---------------------------------------------------------------- corpora

FUZZ_POOL_SEED = 1207
FUZZ_DRAWS = 500
TRANSLATE_POOL_SEED = 6685
TRANSLATE_POOL_SIZE = 400
EVAL_POOL_SEED = 1207_6685
EVAL_POOL_SIZE = 2000


def fuzz_draws() -> list:
    """Criterion-7-style conjecture problems for 2x2 search, each with its
    configuration: (units, config).  Every draw is kept here; the benchmark
    leaves out those that golden.json records as too slow for the budget."""
    r = random.Random(FUZZ_POOL_SEED)
    draws = []
    while len(draws) < FUZZ_DRAWS:
        units = random_units(r, random_signature(r), max_units=2, depth=2)
        config = r.choice(CONFIGS)
        if units[-1][1] == "conjecture":
            draws.append((units, config))
    return draws


def translate_pool() -> list:
    """Larger problems for translation: up to 5 units of depth up to 5."""
    r = random.Random(TRANSLATE_POOL_SEED)
    return [random_units(r, random_signature(r), max_units=5, depth=5)
            for _ in range(TRANSLATE_POOL_SIZE)]


def eval_pool() -> list:
    """(problem text, fixture text, config, violated, worlds, depth) for
    eval: configurations round-robin over all 21, formulas of depth 3-6,
    fixtures of up to 5 worlds over the symbols the formula uses; every
    tenth fixture breaks its frame (or, under K, domain) condition."""
    r = random.Random(EVAL_POOL_SEED)
    cases = []
    for i in range(EVAL_POOL_SIZE):
        config = CONFIGS[i % len(CONFIGS)]
        formula = random_formula(r, random_signature(r), r.randint(3, 6))
        while not 3 <= formula_depth(formula) <= 6:
            formula = random_formula(r, random_signature(r), r.randint(3, 6))
        units = [("con", "conjecture", formula)]
        violated = i % 10 == 9
        fixture, worlds = random_fixture(r, used_symbols(units), config, 5, 3, violated)
        cases.append((problem_text(units), fixture, config, violated, worlds, formula_depth(formula)))
    return cases


def stratified_sample(rng: random.Random, items, key, keep: int, of: int) -> list:
    """Sort items by key and keep ``keep`` of every ``of`` neighbours, chosen
    by the seed, so each seed's sample matches the pool's mix of the key."""
    ranked = sorted(items, key=key)
    chosen = []
    for start in range(0, len(ranked), of):
        block = ranked[start:start + of]
        chosen += rng.sample(block, min(keep, len(block)))
    return chosen


# ---------------------------------------------------------------- fixtures


def close_relation(worlds, rel, props) -> set:
    """Smallest superset of rel with the frame properties (order matters:
    reflexive loops and loops added for seriality keep symmetry and
    transitivity, so they come after the transitive closure)."""
    rel = set(rel)
    if "symmetric" in props:
        rel |= {(v, u) for u, v in rel}
    if "transitive" in props:
        for k in worlds:
            for i in worlds:
                if (i, k) in rel:
                    for j in worlds:
                        if (k, j) in rel:
                            rel.add((i, j))
    if "reflexive" in props:
        rel |= {(w, w) for w in worlds}
    if "serial" in props:
        for w in worlds:
            if not any(u == w for u, _ in rel):
                rel.add((w, w))
    return rel


def _break_frame(worlds, rel, logic) -> set | None:
    """A relation that violates the logic's frame condition, or None if
    the logic (K) has none to violate."""
    props = FRAME_PROPERTIES[logic]
    first = worlds[0]
    if "reflexive" in props:
        return rel - {(first, first)}
    if "serial" in props:
        return {(u, v) for u, v in rel if u != first}
    if "transitive" in props and len(worlds) >= 2:
        return {(worlds[0], worlds[1]), (worlds[1], worlds[0])}
    return None


def random_fixture(
    r: random.Random, sig: dict, config: str, max_worlds: int, max_individuals: int,
    violate: bool = False,
) -> tuple[str, int]:
    """Fixture text over the signature that meets the config's frame and
    domain conditions; with ``violate`` it breaks exactly one of them.
    Returns the text and the number of worlds."""
    logic, domain = config.split(":")
    worlds = tuple(f"w{i}" for i in range(1, r.randint(1, max_worlds) + 1))
    n_indiv = r.randint(2 if violate else 1, max_individuals)
    universe = INDIVIDUALS[:n_indiv]
    rel = close_relation(
        worlds, {(u, v) for u in worlds for v in worlds if r.random() < 0.4},
        FRAME_PROPERTIES[logic],
    )
    broken = _break_frame(worlds, rel, logic) if violate else None
    if broken is not None:
        rel = broken
    if domain == "const":
        dom = {w: set(universe) for w in worlds}
    else:
        core = r.choice(universe)
        dom = {w: {core} | {x for x in universe if r.random() < 0.5} for w in worlds}
        if domain == "cumul":
            changed = True
            while changed:
                changed = False
                for u, v in rel:
                    if not dom[u] <= dom[v]:
                        dom[v] |= dom[u]
                        changed = True
    shared = sorted(set(universe).intersection(*dom.values()))
    consts = {name: r.choice(shared) for name in sig["consts"]}
    funcs = {}
    for name, arity in sig["funcs"].items():
        for args in itertools.product(universe, repeat=arity):
            containing = [dom[w] for w in worlds if set(args) <= dom[w]]
            allowed = sorted(set(universe).intersection(*containing)) if containing else universe
            funcs[(name, args)] = r.choice(allowed)
    if violate and broken is None:
        # K has no frame condition: break the domain condition instead
        dom[worlds[0]] = set(universe[1:]) if domain == "const" else set()
    lines = [f"worlds: {' '.join(worlds)}"]
    if rel:
        lines.append("rel: " + " ".join(f"{u}>{v}" for u, v in sorted(rel)))
    lines.append(f"universe: {' '.join(universe)}")
    for w in worlds:
        lines.append(f"dom {w}: {' '.join(x for x in universe if x in dom[w])}".rstrip())
    for name, val in consts.items():
        lines.append(f"const {name} = {val}")
    for (name, args), val in funcs.items():
        lines.append(f"fun {name}({','.join(args)}) = {val}")
    for name, arity in sig["preds"].items():
        tuples = list(itertools.product(universe, repeat=arity))
        exts = {w: [t for t in tuples if r.random() < 0.5] for w in worlds}
        if not any(exts.values()):
            # keep every predicate visible in the fixture, with its arity
            exts[worlds[0]] = [r.choice(tuples)]
        for w in worlds:
            if exts[w]:
                items = " ".join("()" if not t else ",".join(t) for t in exts[w])
                lines.append(f"pred {name} @ {w}: {items}")
    return "\n".join(lines) + "\n", len(worlds)
