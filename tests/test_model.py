import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import bundle, deta, op_sum, rand_fraction, vec_add, vec_scale, zero_bundle
from homsplit.files import (
    algebra_from_dict,
    algebra_to_dict,
    action_from_dict,
    action_to_dict,
    operator_from_dict,
    operator_to_dict,
    representation_from_dict,
    representation_to_dict,
)
from homsplit.model import (
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    ModelError,
    RepresentationBundle,
    basis_vector,
)
from homsplit.poly import Polynomial

P = Polynomial.parse


def dim2_D1():
    return bundle(
        "quadri_dendriform", 2, ["a"], [["a", "1"], ["0", "a"]],
        prec_vdash=[(1, 1, 2, "1")], succ_vdash=[(1, 1, 2, "1")],
        prec_dashv=[(1, 1, 2, "1")], succ_dashv=[(1, 1, 2, "1/2")],
    )


# -- op_apply -----------------------------------------------------------------

def test_op_apply_reads_table_rows():
    D = deta()
    e1, e2 = basis_vector(3, 1), basis_vector(3, 2)
    assert D.op("prec").apply(e1, e2) == (P("0"), P("0"), P("eta"))


def test_op_apply_zero_argument():
    D = deta()
    zero = (P("0"),) * 3
    assert D.op("prec").apply(zero, basis_vector(3, 2)) == zero


def test_op_apply_sums_rows():
    D = deta()
    x = vec_add(basis_vector(3, 2), basis_vector(3, 3))
    assert D.op("prec").apply(x, basis_vector(3, 2)) == (P("0"), P("0"), P("1/2"))


def test_op_apply_bilinear_random():
    rng = random.Random(5)
    D = deta()
    op = D.op("succ")
    for _ in range(40):
        x = tuple(Polynomial.constant(rand_fraction(rng)) for _ in range(3))
        x2 = tuple(Polynomial.constant(rand_fraction(rng)) for _ in range(3))
        y = tuple(Polynomial.constant(rand_fraction(rng)) for _ in range(3))
        c = rand_fraction(rng)
        assert op.apply(vec_add(x, x2), y) == vec_add(op.apply(x, y), op.apply(x2, y))
        assert op.apply(vec_scale(c, x), y) == vec_scale(c, op.apply(x, y))
        assert op.apply(x, vec_scale(c, y)) == vec_scale(c, op.apply(x, y))


def test_op_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        deta().op("prec").apply(basis_vector(2, 1), basis_vector(2, 1))


# -- map_apply ----------------------------------------------------------------

def test_map_apply_examples():
    D = deta()
    assert D.twist.apply(basis_vector(3, 1)) == (P("0"),) * 3
    identity = LinearMap.identity(3)
    x = (P("a"), P("1/2"), P("0"))
    assert identity.apply(x) == x
    # dim-2 D1: alpha(e2) = e1 + a e2 (column 2 of [[a,1],[0,a]])
    assert dim2_D1().twist.apply(basis_vector(2, 2)) == (P("1"), P("a"))


def test_map_compose_matches_sequential_application():
    rng = random.Random(6)
    m = LinearMap.from_fractions([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
    n = LinearMap.from_fractions([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
    for i in range(1, 4):
        x = basis_vector(3, i)
        assert m.compose(n).apply(x) == m.apply(n.apply(x))


def test_map_transpose_swaps_rows_and_columns_at_every_shape():
    m = LinearMap.from_strings([["1", "a", "0"], ["-1/2", "0", "b^2"]])
    assert m.transpose() == LinearMap.from_strings([["1", "-1/2"], ["a", "0"], ["0", "b^2"]])
    assert m.transpose().transpose() == m
    assert LinearMap.zero(0, 2).transpose() == LinearMap.zero(2, 0)
    assert LinearMap.zero(2, 0).transpose() == LinearMap.zero(0, 2)


def test_map_transpose_is_made_once_and_kept_out_of_equality():
    m = LinearMap.from_strings([["1", "a"], ["0", "b"]])
    fresh = LinearMap.from_strings([["1", "a"], ["0", "b"]])
    assert m.transpose() is m.transpose()
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def test_zero_map_keeps_its_shape_without_rows():
    assert (LinearMap.zero(0, 2).dim_out, LinearMap.zero(0, 2).dim_in) == (0, 2)
    assert LinearMap.zero(0, 2) != LinearMap.zero(0, 0)
    assert LinearMap.zero(2, 3) == LinearMap.from_fractions([[0, 0, 0], [0, 0, 0]])


# -- bundle_specialize ----------------------------------------------------------

def test_specialize_dim2_D1_at_zero():
    D = dim2_D1().specialize({"a": 0})
    assert D.twist == LinearMap.from_strings([["0", "1"], ["0", "0"]])
    assert dict(D.op("succ_dashv").constants)[1, 1, 2] == P("1/2")
    assert D.parameters == ()


def test_specialize_empty_bindings_is_identity():
    D = dim2_D1()
    assert D.specialize({}) == D


def test_specialize_D4_gamma():
    D4 = bundle(
        "quadri_dendriform", 2, ["gamma"], [["0", "1"], ["0", "0"]],
        prec_vdash=[(1, 2, 1, "1"), (2, 2, 1, "1")],
        succ_vdash=[(1, 2, 1, "1"), (2, 2, 1, "1")],
        prec_dashv=[(2, 2, 2, "gamma")],
        succ_dashv=[],
    )
    at_one = D4.specialize({"gamma": 1})
    assert at_one.op("prec_dashv").apply(basis_vector(2, 2), basis_vector(2, 2)) == (
        P("0"), P("1"),
    )


def test_specialize_rejects_undeclared_parameter():
    with pytest.raises(ValueError):
        dim2_D1().specialize({"zeta": 1})


def test_specialize_commutes_with_op_apply():
    rng = random.Random(7)
    D = deta()
    for _ in range(20):
        bindings = {"eta": rand_fraction(rng), "b": rand_fraction(rng)}
        i, j = rng.randrange(1, 4), rng.randrange(1, 4)
        x, y = basis_vector(3, i), basis_vector(3, j)
        direct = D.specialize(bindings).op("prec").apply(x, y)
        after = tuple(p.specialize(bindings) for p in D.op("prec").apply(x, y))
        assert direct == after


# -- validate_bundle -----------------------------------------------------------

def test_validate_flags_unexpected_op():
    D = zero_bundle("dendriform", 2, ["prec", "succ"])
    bad = AlgebraBundle(
        "dendriform", 2,
        {**D.ops, "perp": BilinearOp.square(2, ())},
        D.twist, (),
    )
    report = bad.validate()
    assert not report.ok
    assert any(v.template == "structure.unexpected-op:perp" for v in report.entries)


def test_validate_well_formed_dim2_entry():
    D2 = bundle(
        "quadri_dendriform", 2, ["a"], [["a", "0"], ["0", "0"]],
        prec_vdash=[(1, 1, 2, "1")], succ_vdash=[(1, 1, 2, "-1")],
        prec_dashv=[(1, 1, 2, "1")], succ_dashv=[(1, 1, 2, "1")],
    )
    assert D2.validate().ok


def test_validate_flags_index_out_of_range():
    op = BilinearOp.square(3, [(1, 1, 4, P("1"))])
    bad = AlgebraBundle(
        "dendriform", 3,
        {"prec": op, "succ": BilinearOp.square(3, ())},
        LinearMap.identity(3), (),
    )
    report = bad.validate()
    assert any(
        v.template == "structure.index-range:prec" and v.witness == (1, 1, 4)
        for v in report.entries
    )


def test_validate_flags_undeclared_parameter():
    bad = bundle(
        "dendriform", 2, [], [["0", "0"], ["0", "0"]],
        prec=[(1, 1, 2, "eta")], succ=[],
    )
    report = bad.validate()
    assert any(
        v.template == "structure.undeclared-parameter:eta" for v in report.entries
    )


def test_validate_flags_an_undeclared_parameter_in_the_actions_or_beta():
    base = deta()  # declares b and eta
    rep = RepresentationBundle.adjoint(base)
    assert rep.validate().ok
    q_action = BilinearOp.square(3, [(1, 1, 2, P("q + eta"))])
    q_beta = LinearMap.from_strings([["q", "0", "0"], ["0", "1", "0"], ["0", "0", "b"]])
    for bad in (
        RepresentationBundle(base, 3, {**rep.actions, "prec_l": q_action}, rep.module_twist),
        RepresentationBundle(base, 3, rep.actions, q_beta),
    ):
        templates = [v.template for v in bad.validate().entries]
        assert templates == ["structure.undeclared-parameter:q"]
        data = representation_to_dict(bad)
        assert representation_from_dict(data).validate().entries == bad.validate().entries
        data["parameters"].append("q")
        assert representation_from_dict(data).validate().ok
    # an action file is checked through its representation, and a name the
    # acted twist (the module twist) uses is flagged once
    action = ActionBundle.adjoint(base)
    acted = AlgebraBundle("dendriform", 3, action.acted.ops, q_beta, base.parameters)
    for bad in (
        ActionBundle(base, base, {**action.actions, "succ_r": q_action}),
        ActionBundle(base, acted, action.actions),
    ):
        templates = [v.template for v in bad.validate().entries]
        assert templates == ["structure.undeclared-parameter:q"]
        assert action_from_dict(action_to_dict(bad)).validate().entries == bad.validate().entries



def _one_fault_bundles() -> dict:
    """One bundle per structural flag, each with a single fault, and the flag
    list its `validate` gives."""
    base = deta()  # declares b and eta
    rep = RepresentationBundle.adjoint(base)
    zero = BilinearOp.square(3, ())
    dias = zero_bundle("diassociative", 3, ["dashv", "vdash"])
    acted = AlgebraBundle("associative", 3, {"mu": zero}, base.twist, base.parameters)
    without_succ_r = {name: op for name, op in rep.actions.items() if name != "succ_r"}
    # prec with an entry at k = 4; the acted algebra's faults are flagged under
    # the names of the action's parts()
    outside = replace(base, ops={**base.ops, "prec": op_sum(
        base.op("prec"), BilinearOp.square(3, [(1, 1, 4, P("1"))]))})
    return {
        "missing-op": (AlgebraBundle("dendriform", 3, {"prec": base.op("prec")}, base.twist,
                                     base.parameters), ["structure.missing-op:succ"]),
        "twist-dim": (AlgebraBundle("dendriform", 3, base.ops, LinearMap.identity(2),
                                    base.parameters), ["structure.twist-dim"]),
        "op-dim": (AlgebraBundle("dendriform", 3, {**base.ops, "succ": BilinearOp.square(2, ())},
                                 base.twist, base.parameters), ["structure.op-dim:succ"]),
        "unknown-kind": (AlgebraBundle("dendri", 3, base.ops, base.twist, base.parameters),
                         ["structure.unknown-kind:dendri"]),
        "representation-base-kind": (
            RepresentationBundle(dias, 3, dict.fromkeys(rep.actions, zero), LinearMap.identity(3)),
            ["structure.representation-base-kind"],
        ),
        "missing-action": (RepresentationBundle(base, 3, without_succ_r, rep.module_twist),
                           ["structure.missing-action:succ_r"]),
        "action-dim": (
            RepresentationBundle(base, 3, {**rep.actions, "prec_r": BilinearOp(2, 3, 3, ())},
                                 rep.module_twist),
            ["structure.action-dim:prec_r"],
        ),
        "module-twist-dim": (RepresentationBundle(base, 3, rep.actions, LinearMap.identity(2)),
                             ["structure.module-twist-dim"]),
        "acted-kind": (ActionBundle(base, acted, rep.actions), ["structure.acted-kind"]),
        "acted-index-range": (ActionBundle(base, outside, rep.actions),
                              ["structure.index-range:prec_m"]),
        "acting-and-acted-index-range": (
            ActionBundle(outside, outside, rep.actions),
            ["structure.index-range:prec", "structure.index-range:prec_m"],
        ),
        "acted-twist-dim": (
            ActionBundle(base, replace(base, twist=LinearMap.identity(2)), rep.actions),
            ["structure.module-twist-dim"],
        ),
        "acted-missing-op": (
            ActionBundle(base, replace(base, ops={"prec": base.op("prec")}), rep.actions),
            ["structure.missing-op:succ_m"],
        ),
    }


@pytest.mark.parametrize("flag", list(_one_fault_bundles()))
def test_validate_gives_each_structural_flag_alone_on_a_one_fault_bundle(flag):
    bad, expected = _one_fault_bundles()[flag]
    assert [v.template for v in bad.validate().entries] == expected


def test_a_specialized_representation_or_action_is_the_adjoint_of_the_specialized_algebra():
    base = deta()
    for bindings in ({}, {"eta": 2}, {"b": Fraction(1, 2), "eta": Fraction(-3)}):
        special = base.specialize(bindings)
        for adjoint in (RepresentationBundle.adjoint, ActionBundle.adjoint):
            specialized = adjoint(base).specialize(bindings)
            assert specialized == adjoint(special)
            assert specialized.used_parameters() == {"b", "eta"} - set(bindings)
        with pytest.raises(ValueError, match="undeclared parameter 'q'"):
            RepresentationBundle.adjoint(base).specialize({"q": 1})

# -- file formats ---------------------------------------------------------------

def test_algebra_dict_roundtrip():
    D = deta()
    assert algebra_from_dict(algebra_to_dict(D)) == D


def test_algebra_file_rejects_duplicate_tensor_keys():
    data = algebra_to_dict(dim2_D1())
    data["ops"]["prec_vdash"].append({"i": 1, "j": 1, "k": 2, "c": "3"})
    with pytest.raises(ModelError, match="duplicate tensor key"):
        algebra_from_dict(data)


def test_algebra_file_rejects_unknown_keys_and_bad_polynomials():
    data = algebra_to_dict(dim2_D1())
    data["extra"] = 1
    with pytest.raises(ModelError, match="unexpected key"):
        algebra_from_dict(data)
    data = algebra_to_dict(dim2_D1())
    data["alpha"][0][0] = "2a"
    with pytest.raises(ModelError, match="alpha"):
        algebra_from_dict(data)


def test_representation_and_action_roundtrip():
    D = deta()
    rep = RepresentationBundle.adjoint(D)
    assert representation_from_dict(representation_to_dict(rep)) == rep
    action = ActionBundle.adjoint(D)
    assert action_from_dict(action_to_dict(action)) == action


def test_operator_roundtrip_and_kind_check():
    matrix = LinearMap.from_strings([["0", "0"], ["t21", "t22"]])
    kind, loaded = operator_from_dict(operator_to_dict("averaging_quadri", matrix))
    assert kind == "averaging_quadri" and loaded == matrix
    with pytest.raises(ModelError, match="unknown kind"):
        operator_from_dict({"kind": "nope", "matrix": [["0"]]})


# -- hostile input: JSON booleans are not integers ------------------------------

def test_algebra_file_rejects_boolean_dimension():
    data = algebra_to_dict(zero_bundle("dendriform", 1, ["prec", "succ"]))
    data["dimension"] = True
    with pytest.raises(ModelError, match="dimension"):
        algebra_from_dict(data)


def test_algebra_file_rejects_boolean_tensor_indices():
    for key in ("i", "j", "k"):
        data = algebra_to_dict(zero_bundle("dendriform", 1, ["prec", "succ"]))
        entry = {"i": 1, "j": 1, "k": 1, "c": "1"}
        entry[key] = True
        data["ops"]["prec"].append(entry)
        with pytest.raises(ModelError, match="indices"):
            algebra_from_dict(data)


def test_representation_file_rejects_boolean_module_dimension():
    data = representation_to_dict(RepresentationBundle.adjoint(deta()))
    data["module_dimension"] = True
    with pytest.raises(ModelError, match="module_dimension"):
        representation_from_dict(data)
