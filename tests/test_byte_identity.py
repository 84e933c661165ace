"""Byte-identity guards for the deterministic outputs.

`DISCREPANCIES.md` at the repository root must be what `corpus verify-all`
writes, and the corpus report JSON and the emitted averaging_quadri systems of
the dim-2 and dim-3 corpus contexts must keep their recorded SHA-256 digests.
A change that alters any of them on purpose states why and re-records them.
"""

import hashlib
from pathlib import Path

import pytest

from homsplit.cli import main
from homsplit.corpus import CORPUS_ROOT, list_entries, load_algebra
from homsplit.operators import emit_operator_system

ROOT = Path(__file__).resolve().parent.parent

CORPUS_REPORT_SHA256 = "23e65241c58a996ce7a1c38f20987044b87b6b263c4b3736e5f8b2ba21499836"

EMITTED_SYSTEM_SHA256 = {
    "dim2.D1": "355c96a7c40769edd166e2437180ecd04e6ce5405d79435f695f76c1d5f0f590",
    "dim2.D2": "f29836c129675d57c9b9878bc0d5f4344d59807c2667c55e77156610db950270",
    "dim2.D3.emended": "77e1f9cd3cf62996aed708810d829e30ade1c73ff5db11062e22ed47a9a81d6e",
    "dim2.D3.literal": "5ada06fec1ced717d9c2d563ee0522e66a2116ea81ec75f5f8e0758a275f245c",
    "dim2.D4": "a0ef6fd2d2c995207ac30e10e022dcaff5100fecd24c48476e6576cbe903e275",
    "dim2.D5": "e3f4c4bd16a6d52ca039395536167d3dc8d7accf851601e6797b2969f57596f7",
    "dim3.D1": "89adc1d9033e7446c33adceaa6dcdd713de1ab70dc3c415e1e07aaa1b80b6042",
    "dim3.D10": "69cf85c69ff0ee512597231d13d55cfe48a001c160dd258a21a07e268c070761",
    "dim3.D11": "9486c5d6ff9a3113fe25210d3404405d5e2763891341a11baf258c3e0367af2d",
    "dim3.D12": "3cc3872d947f7be08028a4515a72f7c703bf0258b37ac484a312f448d7ad6c28",
    "dim3.D13": "128bc39977fd70981abb826a402c02822fa990e3091cf07084c98270be68710e",
    "dim3.D2": "dcb7d3dd6a45d8740b77d9f79fa303c9eee335b89b68e7f48d330a891497da57",
    "dim3.D3": "5b8241336319b2ea305264f04c6bbe908f6330fb923c729838dd5c1e5169f22f",
    "dim3.D4": "67c87973c04cab68ca8dc2350d311374c6bcc17a96b755e770e4dc1d732c6b7d",
    "dim3.D5": "892a50385d85ca2c5d42d522eb53d0e6823aebf36ef81331895888a2804cc7f1",
    "dim3.D6": "3d7ae8612ecc13662ca6de0b8d2b9762d36ab0e93ce327280429cc5ffa85b92d",
    "dim3.D7": "f46f0803a16c0ef56289ec214e9efa35da0ee9794978ef85a33fa624d3b43918",
    "dim3.D8": "19ddb73f005b5ebd0a84a4876350654b938623a62338813a4b934081660efb8b",
    "dim3.D9": "97c6d528ab1ddb5f106b53f10e43dca3de2d10fccb84b1428ee944844c98134b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_corpus_verify_all_regenerates_committed_outputs(tmp_path, capsys):
    report, markdown = tmp_path / "report.json", tmp_path / "DISCREPANCIES.md"
    main(["corpus", "verify-all", "--report", str(report), "--discrepancies", str(markdown)])
    capsys.readouterr()
    assert markdown.read_bytes() == (ROOT / "DISCREPANCIES.md").read_bytes()
    assert sha256(report.read_bytes()) == CORPUS_REPORT_SHA256


def quadri_contexts():
    return [
        (e["id"], e["path"]) for e in list_entries()
        if e["type"] == "algebra" and e["path"].startswith(("dim2/", "dim3/"))
    ]


def test_every_dim2_and_dim3_context_has_a_recorded_digest():
    assert sorted(eid for eid, _ in quadri_contexts()) == sorted(EMITTED_SYSTEM_SHA256)


@pytest.mark.parametrize("eid,path", quadri_contexts())
def test_emitted_operator_system_is_byte_identical(eid, path):
    system = emit_operator_system(load_algebra(CORPUS_ROOT / path), "averaging_quadri")
    text = "\n".join(str(p) for p in system) + "\n"
    assert sha256(text.encode("utf-8")) == EMITTED_SYSTEM_SHA256[eid]
