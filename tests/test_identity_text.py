"""The fixed identity sets are text that `axioms._parse` reads: pinned
outputs of every template factory, and the lines the parser refuses."""

import hashlib
import subprocess
import sys

import pytest

from homsplit import axioms
from homsplit.model import KIND_OPS

# sha256 of repr() of each factory's output, recorded from the Python trees
# the text replaced; a drift in an id, a witness order, an op or map name or
# the shape of a tree changes them.
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
}

FIXED = ("dendriform", "associative", "diassociative", "quadri", "triassociative",
         "representation", "action")


def _outputs() -> dict:
    outputs = {name: getattr(axioms, f"{name}_templates")() for name in FIXED}
    for sq15 in axioms.SQ15_READINGS:
        outputs[f"six.{sq15}"] = axioms.six_templates(sq15)
    for kind, ops in KIND_OPS.items():
        names = tuple(sorted(ops))
        outputs[f"mult.{kind}"] = axioms.multiplicative_templates(names)
        outputs[f"hom.{kind}"] = axioms.homomorphism_templates(names)
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

