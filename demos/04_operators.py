"""Operator verification and desk-scale solving: Rota-Baxter families,
averaging operators, polynomial systems, and grid enumeration."""

from fractions import Fraction

from homsplit.corpus import CORPUS_ROOT, load_algebra, load_operator
from homsplit.operators import (
    emit_operator_system,
    family_membership,
    solve_operators_grid,
    verify_operator,
)

## A printed Rota-Baxter family, verified symbolically
# The product identities hold symbolically in a, r32, r33; the twist
# commutation leaves the residual (a-1)*r32, so the family verifies on the
# a = 1 slice (or with r32 = 0).  The corpus records this as a discrepancy.

dias = load_algebra(CORPUS_ROOT / "sec2" / "diassociative_D.json")
_, family = load_operator(CORPUS_ROOT / "operators" / "sec2_rb_family1.json")
report = verify_operator("rota_baxter", dias, family)
print("family 1 on the worked diassociative example:", report.status)
for violation in report.entries[:4]:
    print("   ", violation.template, list(violation.witness), "->", violation.residual)
print("at a = 1:", verify_operator("rota_baxter", dias.specialize({"a": 1}), family).status)

## Extracting the operator variety as a polynomial system
# The unknowns t11..t22 are fresh parameters; the system's common zero set
# is exactly the set of averaging operators of the instance.

d1 = load_algebra(CORPUS_ROOT / "dim2" / "D1.json")
system = emit_operator_system(d1, "averaging_quadri")
print("\naveraging system for dim2.D1 (symbolic in a):")
for equation in system[:6]:
    print("    0 =", equation)

## Grid enumeration + membership in the printed families
# Linear twist constraints are solved exactly first; the free coordinates
# are then enumerated over a rational grid and filtered by the quadratic
# identities.  Completeness is relative to the grid, never absolute.

d3 = load_algebra(CORPUS_ROOT / "dim2" / "D3_literal.json").specialize({"b": 1})
solutions = solve_operators_grid(
    d3, "averaging_quadri", [Fraction(k) for k in range(-2, 3)]
)
print(f"\ndim2.D3 at b=1: {len(solutions)} grid solutions")
_, printed = load_operator(CORPUS_ROOT / "operators" / "dim2_D3_family1.json")
for solution in solutions:
    binding = family_membership(printed, solution)
    print("   ", solution.to_fraction_rows(), "-> family binding", binding)
