"""The identity and construction sets are text that `axioms._parse` reads:
pinned outputs of every template factory and operator set, the lines the
parser refuses, and a construction reading every construction set."""

import hashlib
import subprocess
import sys

import pytest

from helpers import adjoint, deta, zero_bundle
from homsplit import axioms, cli, constructions, operators
from homsplit.model import KIND_OPS, ActionBundle, LinearMap
from homsplit.morphisms import push_forward

# sha256 of repr() of each factory's output, recorded from the Python trees
# the text replaced; a drift in an id, a witness order, an op or map name or
# the shape of a tree changes them.  The graph and quotient closure sets were
# recorded from the text: the trees named their placeholders u, v over "P"
# and w over "I", which the text names p, q and n.
PINNED = {
    "dendriform": "3299f432db3573b772a9259c919d77a6b48cd599fd649ff99be32bc3c97d41b1",
    "associative": "76e8db25965907d53fb2ed58e3804912546aa30c1aee92d7b01804bde5d43041",
    "diassociative": "1d59f3e061305a3e5d3bd49fb8f422793e22977e60e6f7c4f8a7fd002ecad6d3",
    "quadri": "795dbceafbd492e830fa8eaebe0a6ef0e0c6402f3b226556b32611340b552319",
    "triassociative": "24c04fd0c09a043693cfdf841e44e89d120ae5b889150ddb86d91f3c5a7632da",
    "representation": "00f352fa2c98b59c2196b4a01280c5cb6f3393509c92f49b73698b3fc25f0cdc",
    "action": "e4316a5e7bc9825b8288396461bd0a3971bae98b2c36e4a7547d9d6c49bf9ccc",
    "six.literal": "3bfc09427244a863c7ce9737326dcec9b3760a0e2fb101e6250fc0983f9cc793",
    "six.symmetric": "e55ab288c0be4bcc866e096eef3c7e0097cdebaa3e2025226384fff45513caea",
    "mult.associative": "fcb56ad45c3b65a0c863ea2b17d1cc0c87dd9be1669dc17c0e0be9de26d435ef",
    "hom.associative": "10936e13b9aef0b9e3f7bcc3cd197550567f2284ee7e910644c64aa97a9feb03",
    "mult.dendriform": "e50bed6b22335f4cb525b20e6967173019241df02712443c3ba01aaa4506fce0",
    "hom.dendriform": "01a8ba180bbe533e5e1a8cd4c75ab9a1e7728c2cd9244639589d350f89d8ded7",
    "mult.diassociative": "5c38e3f5476a99808c9c41211edb1aeb14c3110d75ea739d40bac9f75e55874b",
    "hom.diassociative": "cd14f02629a9246afc36bb6979728b6ffa7072632443cd7778f4d55ae1f9289b",
    "mult.quadri_dendriform": "0de230d37d2395a53b666bbf192dff3babdde247725a2582460632b308f529ab",
    "hom.quadri_dendriform": "efb0c756d4da2eabc549296f388b9a3cd7ed721fc8e0e7475b881a9c97386783",
    "mult.six_dendriform": "6ccd3e9881881f083f9a9e8922b8a0961cfd80f7bf37825a9ad20216c3ada488",
    "hom.six_dendriform": "313c8fa60ae5ce050f19cc23cde4401922e1d42adc9d6c237f09bc660c24a8c1",
    "mult.triassociative": "5159a9239dca373790d84d1cd2b79f3fde04f8248d25366dc99210d4980a2626",
    "hom.triassociative": "df6c0cd61cfbc532ec92bd6ecc46a6002d5add06b0ffa90c9cb71618ab9f00f1",
    "avg": "69b987b37ea95d6118ac2c54df6bf138b66057b9cbe35ab3c0d56b63c3816687",
    "avg.twist": "700b6f1bd3e50f17563104cda29b964be1ac437af57f8b3a192dbd572128fd14",
    "rb": "61500f105f534a067850e63ca9a26d208c3979d9d7b15806d7bbb75c267d6a9f",
    "rb.twist": "22ec1e82b7b4ce1b1be85344e4474c1e5ceec3f4b178914b526dc7297d0d4b98",
    "qavg": "fc377d76817b7745f6d246afe922049ada0c5a5f6db9d86d9272ecfe5e7ed962",
    "qavg.twist": "c03947d1abdde2eba88b11c19f8b2ebe0ae95da2bf8036d73213c51dfa2a0a13",
    "ravg": "0a611083cc8c24ddeef2d7396a6cbe030948dcb048b8870d42c6c4811375a3fe",
    "ravg.twist": "f71f5299212671b5511018262d18130c51562e1a0deedd42b2dd919231160312",
    "perp-compat": "6c4a46b8491e8cd5941459f0507e34dfeaa87eb22a010fd3f77410c83efb589a",
    "graph.associative": "28485408637bc5a9fd6d05e289ecaedf280e047cfce3bea1dccefaf6548bf2da",
    "quotient.closure.associative":
        "15e6b0e8c33880b21a861d1faf3b4a741fab218fc76b8f08fc16cc0718815c86",
    "graph.dendriform": "c8da461cb65f401570285ba65e16b08be3bd3b43b51a910b423b2b5f301e0613",
    "quotient.closure.dendriform":
        "e26d42e6c53ac19ca4a990cc4a4171e8902081ea71f6ef208899a11333a2100a",
    "graph.diassociative": "f2d67d15d5712e03c50fcfb6587ecb442d1f45b23da97f70789055db5f805247",
    "quotient.closure.diassociative":
        "445d7e89c89d23a38b13679fbe8d028b524f2ed859550e00f08a32e9d1072715",
    "graph.triassociative": "060f5a47167ac6aa572d1b9ac8b58f712945637687ee2275518b06a3bb0b35ce",
    "quotient.closure.triassociative":
        "193bd4ce7334135033fc730fb71e5f1dc9fac7922c3012d7f3fd5604214eac1e",
    "graph.quadri_dendriform": "5df08e925b6ae7f22ea3c32cedc79a81759051a703bafc123c1685b9e249c038",
    "quotient.closure.quadri_dendriform":
        "a77ad2230f4e5d275fb444ec11ce775482d40d781472e442067f3bc360ac6d51",
    "graph.six_dendriform": "d546f334e730bb55dc6220c9f85951bcf5e4b295c2ced723765b3a71e4eeb7c7",
    "quotient.closure.six_dendriform":
        "353ea1b0f4edafff48d80b7d6a83e2a22c2e51d1ab4a34bab6a7b9105c1187c3",
}

FIXED = ("dendriform", "associative", "diassociative", "quadri", "triassociative")
# identity set -> (operator kind, the op names its context gives)
OPERATOR_SETS = {
    "avg": ("averaging_assoc", ("mu",)),
    "rb": ("rota_baxter", tuple(sorted(KIND_OPS["diassociative"]))),
    "qavg": ("averaging_quadri", tuple(sorted(KIND_OPS["quadri_dendriform"]))),
    "ravg": ("relative_averaging", ()),
}


def _outputs() -> dict:
    outputs = {name: getattr(axioms, f"{name}_templates")() for name in FIXED}
    outputs["representation"] = list(axioms._identities("rep"))
    outputs["action"] = list(axioms._identities("act"))
    for sq15 in axioms.SQ15_READINGS:
        outputs[f"six.{sq15}"] = axioms.six_templates(sq15)
    for kind, ops in KIND_OPS.items():
        names = tuple(sorted(ops))
        outputs[f"mult.{kind}"] = list(axioms._identities("mult", ops=names))
        outputs[f"hom.{kind}"] = list(axioms._homomorphism(names))
        outputs[f"graph.{kind}"] = list(axioms._identities("graph", ops=names))
        closure = axioms._identities("quotient.closure", ops=names)
        outputs[f"quotient.closure.{kind}"] = list(closure)
    for name, (kind, names) in OPERATOR_SETS.items():
        outputs[name] = list(operators._operator_templates(kind, names, False))
        outputs[f"{name}.twist"] = list(operators._operator_templates(kind, names, True))
    outputs["perp-compat"] = list(axioms._identities("quotient.perp-compat"))
    return outputs


def test_factory_outputs_match_their_pinned_digests():
    digests = {
        name: hashlib.sha256(repr(templates).encode()).hexdigest()
        for name, templates in _outputs().items()
    }
    assert digests == PINNED


def test_no_identity_text_is_parsed_at_import():
    code = "import homsplit.axioms as a; print(a._identities.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize(
    "line, message",
    [
        ("dend.9: a(x) p (y p z = (x p y) p a(z)", "missing '\\)'"),
        ("dend.9: x p y p z = x", "unexpected 'p'"),
        ("dend.9: a(x) p () = x", "missing operand"),
        ("dend.9 a(x) p y = x", "no ':' after the id"),
        ("dend.9: a(x) q (y p z) = (x p y) p a(z)", "unknown alias 'q'"),
        ("dend.9: c(x) p y = x p y", "unknown alias 'c'"),
        ("dend.9: a(x) p (y p t) = (x p y) p a(z)", "unknown placeholder 't'"),
        ("dend.9: a(x) p y", "0 '=' where 1 or 2 are allowed"),
        (
            "quadri.Hq9: (x pd y) pd a(z) = a(x) pd (y pv z) = a(x) pd (y pd z) = a(x) pd z",
            "3 '=' where 1 or 2 are allowed",
        ),
    ],
)
def test_the_parser_refuses_a_bad_line_naming_its_id(line, message):
    tid = line.split(":")[0].split()[0]
    with pytest.raises(ValueError, match=rf"^identity {tid.replace('.', '[.]')}.*{message}"):
        axioms._parse(["assoc.1: a(x) mu (y mu z) = (x mu y) mu a(z)", line], "", axioms._ALIASES)


@pytest.mark.parametrize("line, count", [
    ("avg-dias.dashv: x mu H(y) = H(x) mu y", 1),
    ("avg-dias.dashv: x mu H(y) = H(x) mu y = x", 2),
])
def test_a_construction_line_with_an_equals_is_refused(monkeypatch, line, count):
    monkeypatch.setattr(axioms, "_CONSTRUCTIONS", f"avg-dias.vdash: H(x) mu y\n{line}\n")
    with pytest.raises(
        ValueError, match=rf"^identity avg-dias[.]dashv: {count} '=' in a construction line"
    ):
        axioms._identities.__wrapped__("avg-dias")


def test_a_set_name_is_looked_up_in_the_identities_first(monkeypatch):
    monkeypatch.setattr(axioms, "_CONSTRUCTIONS", "dend.9: x p y\n")
    assert [t.id for t in axioms._identities.__wrapped__("dend")][0] == "dend.1"
    monkeypatch.setattr(axioms, "_IDENTITIES", "dend.9: x p y\n")
    with pytest.raises(ValueError, match=r"^identity dend[.]9: 0 '=' where 1 or 2 are allowed"):
        axioms._identities.__wrapped__("dend")


def test_every_construction_set_is_read_by_a_construction(monkeypatch):
    read = set()
    real = constructions._identities
    monkeypatch.setattr(
        constructions, "_identities", lambda name, **kw: read.add(name) or real(name, **kw)
    )
    quadri = zero_bundle("quadri_dendriform", 2, KIND_OPS["quadri_dendriform"])
    six = zero_bundle("six_dendriform", 2, KIND_OPS["six_dendriform"])
    rep, action, H = adjoint(deta()), ActionBundle.adjoint(deta()), LinearMap.identity(3)
    inputs = {
        "sum-dias": (quadri,), "sum-tri": (six,), "dsum": (quadri, quadri), "hemi": (rep,),
        "semidirect": (action,), "quotient": (quadri,),
        "avg-dias": (zero_bundle("associative", 3, ["mu"]), H),
        "rb-dias": (zero_bundle("diassociative", 3, ["dashv", "vdash"]), H),
        "ravg-quadri": (rep, H), "havg-six": (action, H),
    }
    assert set(inputs) == set(cli.CONSTRUCTIONS)
    for name, (construction, shapes) in cli.CONSTRUCTIONS.items():
        construction(*inputs[name], **({"force": True} if set(shapes) != {"algebra"} else {}))
    push_forward(quadri, LinearMap.identity(2))
    constructions.ideal_ID(quadri)
    assert constructions.quadri_embedding(quadri).ok and constructions.six_embedding(six).ok
    lines = axioms._CONSTRUCTIONS.strip().splitlines()
    sets = {line.partition(":")[0].rsplit(".", 1)[0] for line in lines}
    assert sets | {"ideal"} <= read


@pytest.mark.parametrize("name", ["qavg", "mult", "graph", "quotient.closure"])
def test_a_set_with_per_op_lines_read_over_no_op_is_refused(name):
    with pytest.raises(ValueError, match=rf"^identity set {name.replace('.', '[.]')} has per-op"):
        axioms._identities.__wrapped__(name)


def test_a_set_with_no_lines_is_refused():
    with pytest.raises(ValueError, match="^identity set avgg has no lines"):
        axioms._identities.__wrapped__("avgg", ops=("mu",))


def test_an_unknown_alias_in_a_per_op_line_names_the_expanded_id(monkeypatch):
    monkeypatch.setattr(axioms, "_IDENTITIES", "qavg.{op}: H(x) op c(y) = H(x op y)\n")
    with pytest.raises(ValueError, match=r"^identity qavg[.]prec_vdash: unknown alias 'c'"):
        axioms._identities.__wrapped__("qavg", ops=("prec_vdash", "succ_vdash"))


def test_per_op_lines_are_read_op_by_op_with_the_prime_on_op_prime():
    templates = axioms._identities("hom", ops=("prec", "succ"))
    assert [t.id for t in templates] == ["hom.prec", "hom.succ"]
    assert templates[1].rhs == axioms.Op("succ'", axioms.App("T", axioms.Var("x")),
                                         axioms.App("T", axioms.Var("y")))
