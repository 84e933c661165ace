"""Structure-producing constructions: hemi-semidirect products, sum
splittings, ideals, and quotients -- with validity transfer checked, not
assumed."""

from homsplit.axioms import check_diassociative, check_quadri
from homsplit.constructions import (
    hemi_semidirect,
    ideal_ID,
    quadri_to_diassociative,
    quotient_dendriform,
)
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import AlgebraBundle, LinearMap, RepresentationBundle


def product(op, i, j):
    """The coordinates of e_i op e_j: row (i, j) of the structure constants."""
    constants = dict(op.constants)
    return [str(constants.get((i, j, k), 0)) for k in range(1, op.dim_out + 1)]


## Hemi-semidirect product
# Any representation of a dendriform algebra yields a quadri-dendriform
# structure on D + V.  With the adjoint representation of the worked
# example, (e1, 0) prec_vdash (0, e2) = (0, eta e3).

deta = load_algebra(CORPUS_ROOT / "sec2" / "dendriform_Deta.json")
hemi = hemi_semidirect(RepresentationBundle.adjoint(deta))
print("hemi dim:", hemi.dim)
print("(e1,0) prec_vdash (0,e2) =", product(hemi.op("prec_vdash"), 1, 5))
print("hemi passes quadri check:", check_quadri(hemi).status)

## Splitting back down
# Summing the vdash-flavored and dashv-flavored pairs recovers a
# diassociative algebra; validity transfers with zero residuals.

dias = quadri_to_diassociative(hemi)
print("\nsplit to diassociative:", check_diassociative(dias).status)

d1 = load_algebra(CORPUS_ROOT / "dim2" / "D1.json")
dias1 = quadri_to_diassociative(d1)
print("dim2.D1: e1 vdash e1 =", product(dias1.op("vdash"), 1, 1))
print("dim2.D1: e1 dashv e1 =", product(dias1.op("dashv"), 1, 1))

## The ideal I_D and the quotient
# I_D is spanned by the dashv-minus-vdash differences; the quotient exists
# only when all four operations and the twist stabilize it.  For dim2.D1
# the twist does NOT stabilize I_D (alpha(e2) = e1 + a e2), so the
# construction refuses and reports -- it never builds silently.

d1_concrete = d1.specialize({"a": 0})
print("\nideal of dim2.D1 at a=0:", ideal_ID(d1_concrete).basis)
blocked = quotient_dendriform(d1_concrete)
print("quotient ok:", blocked.ok)
for violation in blocked.report.entries:
    print("   ", violation.template, list(violation.witness), "->", violation.residual)

# With an identity twist the same product table quotients to a
# 1-dimensional zero dendriform algebra.
stable = AlgebraBundle(
    "quadri_dendriform", 2, dict(d1_concrete.ops), LinearMap.identity(2), (),
)
result = quotient_dendriform(stable)
print("stable variant quotient: ok =", result.ok, ", dimension =", result.bundle.dim)
