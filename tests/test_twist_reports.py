"""The twist-commutation reports, pinned by digest.

Twist commutation X o inner = outer o X is reported per matrix entry as the
violation "<prefix>.twist" with witness (row, col) and the residual of that
entry.  Each group below writes the (template, witness, residual text) rows of
every "*.twist" violation of its cases as JSON, and the sha256 digest of that
text must not change.
"""

import hashlib
import json
import random

import pytest

from helpers import associative_pool, random_action
from homsplit.axioms import check_homomorphism
from homsplit.corpus import CORPUS_ROOT, list_entries, load_algebra, load_operator
from homsplit.model import unknown_matrix
from homsplit.operators import verify_operator

DIM3 = ("D4", "D6", "D8")


def twist_rows(report) -> list:
    return [
        [v.template, list(v.witness), v.residual_text()]
        for v in report.entries
        if v.template.endswith(".twist")
    ]


def corpus_cases():
    paths = {entry["id"]: CORPUS_ROOT / entry["path"] for entry in list_entries()}
    for entry in list_entries():
        if entry["type"] == "operator":
            kind, matrix = load_operator(paths[entry["id"]])
            context = load_algebra(paths[entry["algebra"]])
            yield entry["id"], verify_operator(kind, context, matrix)


def dim3(name):
    return load_algebra(CORPUS_ROOT / "dim3" / f"{name}.json")


def quadri_cases():
    _, symbolic = unknown_matrix(3, 3)
    for name in DIM3:
        yield name, verify_operator("averaging_quadri", dim3(name), symbolic)


def homomorphism_cases():
    _, symbolic = unknown_matrix(3, 3)
    for source in DIM3:
        for target in DIM3:
            report = check_homomorphism("quadri_dendriform", symbolic, dim3(source), dim3(target))
            yield f"{source}->{target}", report


def rectangular_cases():
    for base_dim, module_dim in ((2, 3), (3, 2), (1, 2)):
        rng = random.Random(70 + base_dim * 10 + module_dim)
        action = random_action(rng, base_dim, module_dim)
        _, symbolic = unknown_matrix(base_dim, module_dim)
        for kind in ("relative_averaging", "homomorphic_relative_averaging"):
            yield f"{kind}.{base_dim}x{module_dim}", verify_operator(kind, action, symbolic)


def strict_cases():
    _, symbolic = unknown_matrix(2, 2)
    for number, algebra in enumerate(associative_pool(random.Random(71), 3)):
        report = verify_operator("averaging_assoc", algebra, symbolic, strict_twist=True)
        yield f"pool{number}", report


# group -> (cases, twist violations, sha256 of the rows)
PINNED = {
    "corpus": (
        corpus_cases, 66,
        "f381498497588d4c08f06c4b9c70888ace431e4ec6ae86831124941a1835d1f9",
    ),
    "quadri": (
        quadri_cases, 21,
        "df55b592e7db5657c0b5a6a9e6054646fd0686db978b28c4a80cecac8ec640c8",
    ),
    "homomorphism": (
        homomorphism_cases, 71,
        "c00d4af653e9317a3a3192b9f0a75802aeafcf8810eb03dd9ba5865e7c4305fa",
    ),
    "rectangular": (
        rectangular_cases, 42,
        "b2e1351048251eb73eba67fd03661261b6ab39c2f83a137caabb931b725f6540",
    ),
    "strict": (
        strict_cases, 8,
        "002d10a9e7a63af4c4820e874363b41173d0681162cb6236675282e69405bc60",
    ),
}


@pytest.mark.parametrize("group", sorted(PINNED))
def test_twist_rows_are_pinned(group):
    cases, count, digest = PINNED[group]
    rows = [[label, twist_rows(report)] for label, report in cases()]
    text = json.dumps(rows, sort_keys=True)
    violations = sum(len(case_rows) for _, case_rows in rows)
    assert (violations, hashlib.sha256(text.encode("utf-8")).hexdigest()) == (count, digest)
