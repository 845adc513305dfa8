"""
Bounded countermodel search across all 21 configurations
=========================================================

The Barcan formula is provable under constant domains but
refutable when domains may vary.  Cumulative domains sit in between:
the formula stays refutable for every logic except S5, whose symmetric
accessibility turns domain growth along the relation into equality.

Running the finite-model search over every logic/domain pair recovers
exactly that picture, and prints one of the refuting models in the
fixture syntax the command-line tool consumes.
"""

import itertools

from fml2hol import kripke, qmf
from fml2hol.embedding import DomainCondition, Logic, TranslationConfig

E1 = qmf.parse_problem("""
qmf(con,conjecture,(
    ( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) ) )).
""")

bounds = kripke.SearchBounds(max_worlds=3, max_individuals=3)
smallest = None

print(f"{'':8}" + "".join(f"{d.tag:>12}" for d in DomainCondition))
for logic in Logic:
    row = [f"{logic.tag:8}"]
    for domain in DomainCondition:
        result = kripke.find_countermodel(E1, TranslationConfig(logic, domain), bounds)
        if isinstance(result, kripke.Countermodel):
            row.append(f"{'refuted':>12}")
            size = (len(result.model.worlds), len(result.model.universe))
            if smallest is None or size < smallest[0]:
                smallest = (size, logic, domain, result)
        else:
            row.append(f"{'no model':>12}")
    print("".join(row))

# inspect the smallest refutation the sweep produced
(_, logic, domain, found) = smallest
print()
print(f"smallest countermodel, found under {logic.tag}:{domain.tag},")
print(f"falsifies the conjecture at world {found.world}:")
print()
print(kripke.print_model(found.model))

# the search result is checkable after the fact: no frame or domain
# violation, and the conjecture false at the witness
assert kripke.countermodel_violations(E1, TranslationConfig(logic, domain), found) == ()
print("re-verified: frame ok, domains ok, conjecture false at the witness")
