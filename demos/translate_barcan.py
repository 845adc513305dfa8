"""
Translating a modal problem to classical higher-order logic
============================================================

The Barcan formula  (! [X] : #box : f(X)) => #box : ! [X] : f(X)
says that if everything necessarily satisfies f, then necessarily
everything satisfies f.  Whether that holds depends on how individual
domains behave across worlds, which makes it a nice probe for the
embedding: the same modal source produces different HOL problems for
different logics and domain conditions.
"""

from fml2hol import embedding, qmf, thf

E1 = qmf.parse_problem("""
qmf(con,conjecture,(
    ( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) ) )).
""")

# constant domains in logic D: quantifiers need no existence guard
config = embedding.TranslationConfig(embedding.Logic.D, embedding.DomainCondition.CONSTANT)
print(f"=== {config.name}, everything inline ===")
print(thf.emit_problem(embedding.embed_problem(E1, config)).problem_text)

# varying domains in S5: mforall_ind gains an exists_in_world guard,
# the box operator becomes mbox_s5, and three frame axioms appear
config = embedding.TranslationConfig(embedding.Logic.S5, embedding.DomainCondition.VARYING)
print(f"=== {config.name}, everything inline ===")
print(thf.emit_problem(embedding.embed_problem(E1, config)).problem_text)

# the same translation can be split into reusable axiom files: the problem
# file keeps only the user signature and conjecture plus two include lines
mode = thf.Include(axiom_dir="Axioms", basename="e1")
emitted = thf.emit_problem(embedding.embed_problem(E1, config), mode)
print("=== problem file in include mode ===")
print(emitted.problem_text)
for path, text in emitted.axiom_files:
    print(f"=== {path} ===")
    print(text)
