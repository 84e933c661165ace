"""Polynomial ring arithmetic happens in the parser and nowhere else.

The evaluator works on scaled integers (`poly.IntegerForm`), and every
construction reads its values as the engine's residuals, so the library's
only `Polynomial` + - * neg ** calls are the parser's (`poly._Parser`) and
`BilinearOp.from_entries`'s sum of entries filed under one key.  That is what
bounds them: the parser caps the terms of every product it makes
(`poly.MAX_TERMS`), and a sum has no more terms than its summands.

The test wraps each ring operation of `Polynomial`, runs every CLI
subcommand (each `construct` name included) and the library paths the CLI
does not reach, and names the nearest caller outside `Polynomial` of each
call.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter

import pytest

from helpers import deta, op_sum, six_from_pair
from test_operators import graph_closure_cases
from homsplit import cli, poly
from homsplit.cli import main
from homsplit.constructions import quadri_embedding, six_embedding
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.files import (
    action_to_dict,
    algebra_to_dict,
    operator_to_dict,
    representation_to_dict,
    write_json,
)
from homsplit.model import ActionBundle, AlgebraBundle, BilinearOp, LinearMap, RepresentationBundle
from homsplit.morphisms import push_forward, verify_isomorphism
from homsplit.operators import graph_is_subalgebra
from homsplit.poly import Polynomial

RING = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__rmul__")
ALLOWED = {"poly._Parser", "BilinearOp.from_entries"}
POLY_FILE = Polynomial.__add__.__code__.co_filename


def _lines(cls) -> range:
    source, start = inspect.getsourcelines(cls)
    return range(start, start + len(source))


def _caller_name(frame) -> str:
    code = frame.f_code
    if code.co_filename == POLY_FILE and code.co_firstlineno in _lines(poly._Parser):
        return "poly._Parser"
    if code is BilinearOp.from_entries.__code__:
        return "BilinearOp.from_entries"
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


@pytest.fixture
def callers(monkeypatch):
    """A Counter, filled while the test runs, of the nearest caller outside
    `Polynomial` and the wrappers of each ring operation."""
    seen: Counter = Counter()
    inside = _lines(Polynomial)

    def wrap(real):
        def ring_operation(*args):
            frame = sys._getframe(1)
            while frame.f_code is ring_operation.__code__ or (
                frame.f_code.co_filename == POLY_FILE and frame.f_code.co_firstlineno in inside
            ):
                frame = frame.f_back
            seen[_caller_name(frame)] += 1
            return real(*args)

        return ring_operation

    for name in RING:
        monkeypatch.setattr(Polynomial, name, wrap(vars(Polynomial)[name]))
    return seen


def _corpus(rel: str) -> str:
    return str(CORPUS_ROOT / rel)


def _write_inputs(tmp_path) -> dict:
    """{construct NAME: its input paths}.  The test helpers that make the
    files add polynomials, so they run before the count starts."""
    algebra = deta()
    mu = op_sum(algebra.op("prec"), algebra.op("succ"))
    associative = AlgebraBundle("associative", 3, {"mu": mu}, algebra.twist, algebra.parameters)
    identity = LinearMap.identity(3)
    files = {
        "six.json": algebra_to_dict(six_from_pair(algebra)),
        "associative.json": algebra_to_dict(associative),
        "representation.json": representation_to_dict(RepresentationBundle.adjoint(algebra)),
        "action.json": action_to_dict(ActionBundle.adjoint(algebra)),
        **{
            f"{kind}.json": operator_to_dict(kind, identity)
            for kind in ("averaging_assoc", "rota_baxter", "relative_averaging",
                         "homomorphic_relative_averaging")
        },
    }
    for name, data in files.items():
        write_json(tmp_path / name, data)
    path = lambda name: str(tmp_path / name)
    d1, dias = _corpus("dim2/D1.json"), _corpus("sec2/diassociative_D.json")
    return {
        "sum-dias": [d1],
        "sum-tri": [path("six.json")],
        "dsum": [d1, d1],
        "hemi": [path("representation.json")],
        "semidirect": [path("action.json")],
        "quotient": [_corpus("dim3/D4.json")],
        "avg-dias": [path("associative.json"), path("averaging_assoc.json")],
        "rb-dias": [dias, path("rota_baxter.json")],
        "ravg-quadri": [path("representation.json"), path("relative_averaging.json")],
        "havg-six": [path("action.json"), path("homomorphic_relative_averaging.json")],
    }


def test_only_the_parser_and_from_entries_do_ring_arithmetic(tmp_path, capsys, callers):
    inputs = _write_inputs(tmp_path)
    graphs = graph_closure_cases()
    quadri, six = load_algebra(_corpus("dim2/D1.json")), six_from_pair(deta())
    six = six.specialize({name: 1 for name in six.used_parameters()})
    shear = LinearMap.from_fractions([[1, 1], [0, 1]])
    callers.clear()

    assert set(inputs) == set(cli.CONSTRUCTIONS)
    for name, paths in inputs.items():
        force = ["--force"] if set(cli.CONSTRUCTIONS[name][1]) != {"algebra"} else []
        assert main(["construct", name, *paths, "-o", str(tmp_path / "out.json"), *force]) == 0
    d1, d4 = _corpus("dim2/D1.json"), _corpus("dim3/D4.json")
    argvs = [
        ["check", d1, "--multiplicative"],
        ["check", inputs["sum-tri"][0], "--sq15", "symmetric"],
        ["check", inputs["hemi"][0]],
        ["check", inputs["semidirect"][0]],
        ["verify-op", _corpus("sec2/diassociative_D.json"),
         _corpus("operators/sec2_rb_family1.json")],
        ["solve-op", d4, "--kind", "averaging_quadri", "--grid=-1..1"],
        ["emit-system", d1, "--kind", "averaging_quadri"],
        ["fingerprint", d4],
        ["iso", d4, d4, "--grid=-1..1"],
        ["corpus", "list"],
        ["corpus", "verify-all", "--report", str(tmp_path / "corpus.json")],
    ]
    for argv in argvs:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()

    # the library paths no subcommand reaches: a twist with a parameter
    # pushed forward, isomorphism verification, both embeddings, graphs
    moved = push_forward(quadri, shear)
    assert moved.twist.parameters() == {"a"}
    assert verify_isomorphism(quadri.kind, shear, moved, quadri).ok
    quadri_embedding(load_algebra(d4))
    six_embedding(six)
    for container, linear, direction in graphs:
        graph_is_subalgebra(container, linear, direction=direction)

    assert callers["poly._Parser"], "the wrappers saw no ring operation"
    assert set(callers) <= ALLOWED, dict(callers)
