"""The Herbrand prover for prenex formulas, end to end.

Level L asks whether the disjunction of the ground matrix instances over
the first L Herbrand-base atoms is valid, with one propositional search
for a countermodel.  The first level without one yields a certificate,
those instances, which is re-checked propositionally and reassembled
into a rule trace.
"""

from goedel_logics import (
    HerbrandProblem, parse, print_formula, prove_prenex, reassemble,
    verify_certificate, verify_trace,
)

# Herbrand form: universal variables become fresh function symbols
# applied to the preceding existential variables.
p = HerbrandProblem(parse("exists x. forall y. (A(y) -> A(x))"))
print("Herbrand form:", print_formula(p.existential_form))
print("base prefix:  ", [print_formula(a) for a in p.base(4)])

# The chain formula is valid in every finite-valued logic but not over
# [0,1]; the two modes reflect that.
c_down = parse("exists x. forall y. (A(y) -> A(x))")
res = prove_prenex(c_down, "finite:3", max_level=8)
print("finite(3):", res.status, "at level", res.level_reached)
for d in res.certificate.disjuncts:
    print("   disjunct:", print_formula(d))
print("independent check:", verify_certificate(res.certificate))

res_u = prove_prenex(c_down, "uncountable", max_level=6)
print("uncountable:", res_u.status, "at level", res_u.level_reached)
# "unknown" comes from a countermodel at the level bound; under its
# order every instance so far stays below 1
print("   open order:", " < ".join(" = ".join(cls) for cls in res_u.open_order))

# Reassembly: a machine-checkable trace from the Herbrand disjunction
# back to the prenex formula.  The disjuncts form a flat tuple; each step
# drops a repeated disjunct (3) or puts one quantifier back on one
# disjunct (4, 5), followed by the shift (6, 7) out of the others.
trace = reassemble(res.certificate)
print("trace verified:", verify_trace(trace, res.certificate))
print(trace.describe())

# Here the leading universal's Skolem constant c1() sits in both
# disjuncts, so its eigenvariable is bound once, after they are contracted.
pinned = parse("forall x1. exists x2. forall x3. "
               "Q(x3) | Q(x2) | (Q(x3) -> Q(x1) & A) | (Q(x3) -> Q(x2))")
res_p = prove_prenex(pinned, "finite:3", max_level=8)
trace_p = reassemble(res_p.certificate)
print("finite(3):", res_p.status, "at level", res_p.level_reached,
      "- trace verified:", verify_trace(trace_p, res_p.certificate))
print(trace_p.describe())
