"""Mutation check: do the tests notice when a fast path is broken?

Each mutant is one exact-string edit of a file under `src/homsplit`, which
must match exactly once, and the test files that should fail with it.  The
script copies the files the tests read (`copy_tree`) to a temporary
directory, runs the named test files there once unmutated (they must pass),
then applies each mutant to a fresh copy and runs its test files.  A mutant
whose tests still pass survived.  It needs only the standard library and the
test dependencies, and pytest does not collect it:

    python tests/mutants.py

It prints one line per mutant and exits 1 if a mutant survives, an edit does
not match exactly once, or the unmutated tests fail.  The known equivalent
mutants (`EQUIVALENT`) are printed with their reason and not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    {
        "name": "the evaluator visits the lhs keys only",
        "file": "src/homsplit/axioms.py",
        "old": "for combo in sorted(lhs.keys() | rhs.keys()):",
        "new": "for combo in sorted(lhs.keys()):",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the op join keeps a product only when its first coordinate is nonzero",
        "file": "src/homsplit/axioms.py",
        "old": "            if product:\n",
        "new": "            if 0 in product:\n",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the right index files an entry under its first nonzero coordinate only",
        "file": "src/homsplit/axioms.py",
        "old": "for j, yj in vector.items():",
        "new": "for j, yj in list(vector.items())[:1]:",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the index cache is keyed by slot without its shared names",
        "file": "src/homsplit/axioms.py",
        "old": (
            "        index = indexes.get(shared)\n"
            "        if index is None:\n"
            "            index = indexes[shared] = _index(b, at_b)\n"
        ),
        "new": (
            "        index = indexes.get(None)\n"
            "        if index is None:\n"
            "            index = indexes[None] = _index(b, at_b)\n"
        ),
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "a finalized vector keeps a coordinate that cancelled to {}",
        "file": "src/homsplit/axioms.py",
        "old": "        if acc:\n            vector[k] = acc\n",
        "new": "        vector[k] = acc\n",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "intern key omits the scale",
        "file": "src/homsplit/axioms.py",
        "old": "shared = residuals.setdefault(scale, {})",
        "new": "shared = residuals.setdefault(None, {})",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "row-head cache keyed by template",
        "file": "src/homsplit/files.py",
        "old": "key = id(item.scaled or item)",
        "new": "key = item.template",
        "tests": ["tests/test_json_writer.py"],
    },
    {
        "name": "report row text cache keyed by template",
        "file": "src/homsplit/report.py",
        "old": "key = id(v.scaled or v)",
        "new": "key = v.template",
        "tests": ["tests/test_sparse_engine.py", "tests/test_corpus.py"],
    },
    {
        "name": "stream drops its last flush",
        "file": "src/homsplit/files.py",
        "old": '    _write(data, "\\n", out)\n    out.flush()\n',
        "new": '    _write(data, "\\n", out)\n',
        "tests": ["tests/test_json_writer.py", "tests/test_cli.py"],
    },
    {
        "name": "the writer caches witness text by template",
        "file": "src/homsplit/files.py",
        "old": (
            "tail = witnesses.get(witness)\n"
            "                if tail is None:\n"
            "                    tail = witnesses[witness] = ("
        ),
        "new": (
            "tail = witnesses.get(item.template)\n"
            "                if tail is None:\n"
            "                    tail = witnesses[item.template] = ("
        ),
        "tests": ["tests/test_json_writer.py"],
    },
    {
        "name": "rref divides each pivot row by the absolute value of its pivot",
        "file": "src/homsplit/linalg.py",
        "old": "[[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]",
        "new": "[[Fraction(v, abs(row[c])) for v in row] for row, c in zip(m, pivots)]",
        "tests": ["tests/test_linalg.py"],
    },
    {
        "name": "rref leaves the rows above a pivot uncleared",
        "file": "src/homsplit/linalg.py",
        "old": "for i in range(0 if reduced else r + 1, nrows):",
        "new": "for i in range(r + 1, nrows):",
        "tests": ["tests/test_linalg.py"],
    },
    {
        "name": "the Bareiss determinant keeps its sign across a row swap",
        "file": "src/homsplit/linalg.py",
        "old": "            sign = -sign\n",
        "new": "",
        "tests": ["tests/test_linalg.py"],
    },
    {
        "name": "charpoly returns the coefficients of L*A without dividing by L^k",
        "file": "src/homsplit/linalg.py",
        "old": "return [Fraction(c, common**k) for k, c in enumerate(coeffs)]",
        "new": "return [Fraction(c) for k, c in enumerate(coeffs)]",
        "tests": ["tests/test_linalg.py"],
    },
    {
        "name": "the literal fast path of the parser drops the minus sign",
        "file": "src/homsplit/poly.py",
        "old": '_LITERAL_RE = re.compile(r"(-?\\d+)(?:/(\\d+))?")',
        "new": '_LITERAL_RE = re.compile(r"-?(\\d+)(?:/(\\d+))?")',
        "tests": ["tests/test_poly.py"],
    },
    {
        "name": "the literal fast path divides by a zero denominator",
        "file": "src/homsplit/poly.py",
        "old": (
            "            if int(denominator):\n"
            "                return Polynomial.constant(Fraction(int(numerator), int(denominator)))\n"
        ),
        "new": "            return Polynomial.constant(Fraction(int(numerator), int(denominator)))\n",
        "tests": ["tests/test_poly.py"],
    },
    {
        "name": "the compiled system maps exponent positions to unknowns by index",
        "file": "src/homsplit/poly.py",
        "old": "position[name] for name, exp in form.monomial(packed) for _ in range(exp)",
        "new": "form.order.index(name) for name, exp in form.monomial(packed) for _ in range(exp)",
        "tests": ["tests/test_poly.py"],
    },
    {
        "name": "the packed fields are sized from the largest exponent without the node count",
        "file": "src/homsplit/axioms.py",
        "old": "nodes * max((exponent for _, exponent in facts), default=0),",
        "new": "max((exponent for _, exponent in facts), default=0),",
        "tests": ["tests/test_packed_monomials.py"],
    },
    {
        "name": "the per-object facts report exponent 0, so the fields come out too narrow",
        "file": "src/homsplit/axioms.py",
        "old": "value.parameters(), max_exponent(polys)",
        "new": "value.parameters(), 0",
        "tests": ["tests/test_packed_monomials.py"],
    },
    {
        "name": "the pair table of x op y ignores the flip",
        "file": "src/homsplit/axioms.py",
        "old": "table.setdefault((j, i) if flip else (i, j), {})[k - 1] = terms",
        "new": "table.setdefault((i, j), {})[k - 1] = terms",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the column table of f(x) drops its last nonzero column",
        "file": "src/homsplit/axioms.py",
        "old": 'self.kernels["columns", name] = dict(sorted(table.items()))',
        "new": 'self.kernels["columns", name] = dict(sorted(table.items())[:-1])',
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "IntegerForm.scaled packs an exponent above its field",
        "file": "src/homsplit/poly.py",
        "old": "if not 0 <= exp < 1 << width:",
        "new": "if exp < 0:",
        "tests": ["tests/test_packed_monomials.py"],
    },
    {
        "name": "the row-indexed op kernel drops its last row",
        "file": "src/homsplit/axioms.py",
        "old": "rows = tuple(tuple(row.items()) for row in rows)",
        "new": "rows = tuple(tuple(row.items()) for row in rows[:-1]) + ((),)",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the op join walks only the last nonzero coordinate of each left entry",
        "file": "src/homsplit/axioms.py",
        "old": "for i, xi in vector_a.items():",
        "new": "for i, xi in list(vector_a.items())[-1:]:",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the fast Violation constructor leaves the lazy residual unset",
        "file": "src/homsplit/report.py",
        "old": "    _set_residual(violation, None)\n",
        "new": "",
        "tests": ["tests/test_residuals.py"],
    },
    {
        "name": "the one-copy difference keeps a coefficient that comes out zero",
        "file": "src/homsplit/axioms.py",
        "old": (
            "        if value:\n"
            "            out[mono] = value\n"
            "        else:\n"
            "            del out[mono]\n"
        ),
        "new": "        out[mono] = value\n",
        "tests": ["tests/test_sparse_engine.py"],
    },
    {
        "name": "the iso search drops its det != 0 test",
        "file": "src/homsplit/morphisms.py",
        "old": "if all(allowed.issuperset(row) for row in rows) and linalg.determinant(rows) != 0:",
        "new": "if all(allowed.issuperset(row) for row in rows):",
        "tests": ["tests/test_morphisms.py"],
    },
    {
        "name": "the twist template runs without the transposes, witnessed by (col, row)",
        "file": "src/homsplit/axioms.py",
        "old": (
            '    lhs, rhs = App("inner^T", App(xt, x)), App(xt, App("outer^T", x))\n'
            '    return Template(f"{prefix}.twist", (("x", space),), lhs, rhs)\n'
            "\n"
            "\n"
            "def twist_maps(name: str, linear: LinearMap, inner: LinearMap, outer: LinearMap)"
            " -> dict:\n"
            '    """The transposed maps of `twist_template` for X = `linear`."""\n'
            '    maps = {f"{name}^T": linear, "inner^T": inner, "outer^T": outer}\n'
            "    return {key: matrix.transpose() for key, matrix in maps.items()}\n"
        ),
        "new": (
            '    lhs, rhs = App(xt, App("inner^T", x)), App("outer^T", App(xt, x))\n'
            '    return Template(f"{prefix}.twist", (("x", space),), lhs, rhs)\n'
            "\n"
            "\n"
            "def twist_maps(name: str, linear: LinearMap, inner: LinearMap, outer: LinearMap)"
            " -> dict:\n"
            '    return {f"{name}^T": linear, "inner^T": inner, "outer^T": outer}\n'
        ),
        "tests": ["tests/test_twist_reports.py"],
    },
    {
        "name": "the cached operator template set is keyed without the strict_twist flag",
        "file": "src/homsplit/operators.py",
        "old": "_operator_templates(kind, tuple(sorted(context.ops)), twist)",
        "new": '_operator_templates(kind, tuple(sorted(context.ops)), kind != "averaging_assoc")',
        "tests": ["tests/test_twist_reports.py"],
    },
    {
        "name": "the constant fast path keeps a zero coefficient",
        "file": "src/homsplit/poly.py",
        "old": '(((), value),) if value else ()',
        "new": '(((), value),)',
        "tests": ["tests/test_poly.py"],
    },
    {
        "name": "the iso search takes the first-column echelon basis",
        "file": "src/homsplit/morphisms.py",
        "old": "grid_points(twists, shape, check, grid, row_major=True)",
        "new": "grid_points(twists, shape, check, grid, row_major=False)",
        "tests": ["tests/test_grid_search.py"],
    },
    {
        "name": "the grid routine takes the last-column echelon basis whatever row_major says",
        "file": "src/homsplit/operators.py",
        "old": "    if row_major:\n",
        "new": "    if True:\n",
        "tests": ["tests/test_grid_search.py"],
    },
    {
        "name": "the iso search keeps a point with an entry off the grid",
        "file": "src/homsplit/morphisms.py",
        "old": "if all(allowed.issuperset(row) for row in rows) and linalg.determinant(rows) != 0:",
        "new": "if linalg.determinant(rows) != 0:",
        "tests": ["tests/test_grid_search.py"],
    },
    {
        "name": "the construct table forwards --force to an algebra-only construction",
        "file": "src/homsplit/cli.py",
        "old": 'forced = {"force": args.force} if set(shapes) != {"algebra"} else {}',
        "new": 'forced = {"force": args.force}',
        "tests": ["tests/test_cli.py"],
    },
    {
        "name": "the precondition refusal refuses a forced build",
        "file": "src/homsplit/constructions.py",
        "old": "    if not precondition.ok and not force:\n",
        "new": "    if not precondition.ok:\n",
        "tests": ["tests/test_cli.py", "tests/test_constructions.py"],
    },
    {
        "name": "the representation check reads the parameters of its base only",
        "file": "src/homsplit/model.py",
        "old": "for name in sorted(self.used_parameters() - known):",
        "new": "for name in sorted(self.base.used_parameters() - known):",
        "tests": ["tests/test_model.py"],
    },
    {
        "name": "the compiled system files each equation one level too early",
        "file": "src/homsplit/poly.py",
        "old": "            self.levels[level].append(equation)\n",
        "new": "            self.levels[max(level - 1, 0)].append(equation)\n",
        "tests": ["tests/test_grid_search.py"],
    },
    {
        "name": "the compiled system tests every equation only at the leaf",
        "file": "src/homsplit/poly.py",
        "old": "            self.levels[level].append(equation)\n",
        "new": "            self.levels[-1].append(equation)\n",
        "tests": ["tests/test_grid_search.py"],
    },
    {
        "name": "the grid walk does not narrow its values to ints",
        "file": "src/homsplit/linalg.py",
        "old": "values = sorted({_narrow(Fraction(v)) for v in values})",
        "new": "values = sorted({Fraction(v) for v in values})",
        "tests": ["tests/test_linalg.py"],
    },
    {
        "name": "check_homomorphism drops hom.twist",
        "file": "src/homsplit/axioms.py",
        "old": '    return (*_identities("hom", ops=names), twist_template("hom", "T", "D\'"))\n',
        "new": '    return _identities("hom", ops=names)\n',
        "tests": ["tests/test_twist_reports.py"],
    },
    {
        "name": "the per-op lines read op' as op",
        "file": "src/homsplit/axioms.py",
        "old": "\"op'\": op + \"'\"",
        "new": "\"op'\": op",
        "tests": ["tests/test_morphisms.py"],
    },
    {
        "name": "the per-op expansion drops its last op",
        "file": "src/homsplit/axioms.py",
        "old": "    for op in ops:\n",
        "new": "    for op in ops[:-1]:\n",
        "tests": ["tests/test_grid_search.py"],
    },
    {
        "name": "the chain split emits the second=third template again",
        "file": "src/homsplit/axioms.py",
        "old": "for s, side in zip(suffixes, rest)]\n",
        "new": (
            "for s, side in zip(suffixes, rest)]\n"
            "        templates += [Template(tid + \".c\", variables, *rest)] if rest[1:] else []\n"
        ),
        "tests": ["tests/test_axioms.py"],
    },
    {
        "name": "quadri.Hq5 swaps its aliases pv and pd",
        "file": "src/homsplit/axioms.py",
        "old": "quadri.Hq5: (x pv y) pd a(z)",
        "new": "quadri.Hq5: (x pd y) pv a(z)",
        "tests": ["tests/test_sparse_engine.py", "tests/test_identity_text.py"],
    },
    {
        "name": "the parser reverses the witness order",
        "file": "src/homsplit/axioms.py",
        "old": "variables = tuple(seen.items())",
        "new": "variables = tuple(seen.items())[::-1]",
        "tests": ["tests/test_identity_text.py"],
    },
    {
        "name": "the parser drops the last term of a sum",
        "file": "src/homsplit/axioms.py",
        "old": "else Sum(tuple(terms))",
        "new": "else Sum(tuple(terms[:-1]))",
        "tests": ["tests/test_sparse_engine.py", "tests/test_identity_text.py"],
    },
    {
        "name": "the parser looks an unknown alias up unchecked",
        "file": "src/homsplit/axioms.py",
        "old": (
            "        if token not in aliases:\n"
            "            fail(f\"unknown alias {token!r}\")\n"
        ),
        "new": "",
        "tests": ["tests/test_identity_text.py"],
    },
    {
        "name": "the parser drops a fourth side",
        "file": "src/homsplit/axioms.py",
        "old": "        if len(rest) not in (1, 2):\n",
        "new": "        if not rest:\n",
        "tests": ["tests/test_identity_text.py"],
    },
    {
        "name": "construct accepts extra inputs",
        "file": "src/homsplit/cli.py",
        "old": "    if len(args.inputs) > len(shapes):\n",
        "new": "    if False:\n",
        "tests": ["tests/test_cli.py"],
    },
    {
        "name": "the annihilator drops right products",
        "file": "src/homsplit/morphisms.py",
        "old": (
            "                equations.append([table.get((j, i, k), 0) "
            "for i in range(1, n + 1)])\n"
        ),
        "new": "",
        "tests": ["tests/test_morphisms.py"],
    },
    {
        "name": "ideal generators keyed without their flavor",
        "file": "src/homsplit/constructions.py",
        "old": "generators.setdefault((v.template, i, j), [0] * bundle.dim)",
        "new": "generators.setdefault((i, j), [0] * bundle.dim)",
        "tests": ["tests/test_byte_identity.py"],
    },
    {
        "name": "quotient twist read untransposed",
        "file": "src/homsplit/constructions.py",
        "old": "rows[r - 1][s - 1] = entry",
        "new": "rows[s - 1][r - 1] = entry",
        "tests": ["tests/test_byte_identity.py"],
    },
    {
        "name": "the zero map of expr = 0 sized from the output space on both sides",
        "file": "src/homsplit/constructions.py",
        "old": 'zero = LinearMap.zero(dims[out], dims[bind["x"]])',
        "new": "zero = LinearMap.zero(dims[out], dims[out])",
        "tests": ["tests/test_byte_identity.py"],
    },
    {
        "name": "the direct sum puts the twist of its second summand first",
        "file": "src/homsplit/constructions.py",
        "old": "twist=LinearMap.block_diag(a.twist, b.twist),",
        "new": "twist=LinearMap.block_diag(b.twist, a.twist),",
        "tests": ["tests/test_byte_identity.py"],
    },
    {
        "name": "the tensor check skips the actions",
        "file": "src/homsplit/model.py",
        "old": '_check_tensor(flag, "structure.action-dim", name, self.actions[name], shape)',
        "new": "None",
        "tests": ["tests/test_cli.py"],
    },
    {
        "name": "used_parameters leaves out the maps",
        "file": "src/homsplit/model.py",
        "old": "(*ops.values(), *maps.values())",
        "new": "(*ops.values(),)",
        "tests": ["tests/test_model.py"],
    },
    {
        "name": "specialize leaves a nested bundle unspecialized",
        "file": "src/homsplit/model.py",
        "old": 'value.specialize(bindings) if hasattr(value, "specialize") else value',
        "new": (
            "value.specialize(bindings) if isinstance(value, (BilinearOp, LinearMap)) else value"
        ),
        "tests": ["tests/test_model.py"],
    },
    {
        "name": "an action flags its acted ops under the acting op names",
        "file": "src/homsplit/model.py",
        "old": 'self.acted.validate("_m").entries',
        "new": "self.acted.validate().entries",
        "tests": ["tests/test_model.py", "tests/test_cli.py"],
    },
    {
        "name": "check accepts --sq15 on a representation or action file",
        "file": "src/homsplit/cli.py",
        "old": "elif args.multiplicative or args.sq15:",
        "new": "elif args.multiplicative:",
        "tests": ["tests/test_cli.py"],
    },
    {
        "name": "a structural refusal names no flag on its error line",
        "file": "src/homsplit/corpus/__init__.py",
        "old": 'f"{path}: structural violations: {flags}\\n{report}"',
        "new": 'f"{path}: structural violations\\n{report}"',
        "tests": ["tests/test_cli.py"],
    },
    {
        "name": "push_forward swaps S and its inverse",
        "file": "src/homsplit/morphisms.py",
        "old": "bundle.parts_with(S=basis_change, Sinv=s_inv)",
        "new": "bundle.parts_with(S=s_inv, Sinv=basis_change)",
        "tests": ["tests/test_byte_identity.py"],
    },
    {
        "name": "push.alpha conjugates the twist the wrong way round",
        "file": "src/homsplit/axioms.py",
        "old": "push.alpha: Sinv(a(S(x)))\n",
        "new": "push.alpha: S(a(Sinv(x)))\n",
        "tests": ["tests/test_morphisms.py"],
    },
    {
        "name": "verify_isomorphism flags the invertible maps as singular",
        "file": "src/homsplit/morphisms.py",
        "old": "if linalg.determinant(linear.to_fraction_rows()) == 0:",
        "new": "if linalg.determinant(linear.to_fraction_rows()) != 0:",
        "tests": ["tests/test_morphisms.py"],
    },
    {
        "name": "verify_isomorphism takes a map with parameters",
        "file": "src/homsplit/morphisms.py",
        "old": (
            "    if names := linear.parameters():\n"
            "        raise ValueError(\n"
            '            "verify_isomorphism needs a parameter-free map: its invertibility "\n'
            '            f"depends on the values of {\', \'.join(sorted(names))}"\n'
            "        )\n"
        ),
        "new": "",
        "tests": ["tests/test_morphisms.py"],
    },
    {
        "name": "avg-dias.dashv applies H to the left operand",
        "file": "src/homsplit/axioms.py",
        "old": "avg-dias.dashv: x mu H(y)\n",
        "new": "avg-dias.dashv: H(x) mu y\n",
        "tests": ["tests/test_byte_identity.py"],
    },
    {
        "name": "sum-dias.dashv reads prec_vdash for prec_dashv",
        "file": "src/homsplit/axioms.py",
        "old": "sum-dias.dashv: x pd y + x sd y",
        "new": "sum-dias.dashv: x pv y + x sd y",
        "tests": ["tests/test_constructions.py"],
    },
    {
        "name": "check accepts --sq15 on a quadri file",
        "file": "src/homsplit/cli.py",
        "old": 'if args.sq15 and context.kind != "six_dendriform":',
        "new": 'if args.sq15 and context.kind not in ("six_dendriform", "quadri_dendriform"):',
        "tests": ["tests/test_cli.py"],
    },
    {
        "name": "operators gains a function that nothing calls",
        "file": "src/homsplit/operators.py",
        "old": "    return dict(zip(unknowns, solution))\n",
        "new": "    return dict(zip(unknowns, solution))\n\n\ndef _unused():\n    return None\n",
        "tests": ["tests/test_reachability.py"],
    },
]

# Edits that change the code but not what it computes, with the reason; they
# are listed so that nobody spends time trying to kill them, and are not run.
EQUIVALENT = [
    {
        "name": "quotient.perp-compat is checked against dashv instead of vdash",
        "reason": "dashv - vdash lies in I_D, so both readings give the same conditions",
    },
]


def copy_tree(target: Path) -> None:
    """Copy what the tests read: the package, the tests, the demos that
    `test_demos.py` runs, the pytest configuration, the README whose command
    synopsis `test_cli.py` reads and the committed `DISCREPANCIES.md` that
    `test_byte_identity.py` and `test_acceptance.py` compare with."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "demos"):
        shutil.copytree(ROOT / part, target / part, ignore=ignore)
    for name in ("pyproject.toml", "README.md", "DISCREPANCIES.md"):
        shutil.copy(ROOT / name, target / name)


def run_tests(tree: Path, tests: list) -> bool:
    """Do the test files pass in `tree`, importing homsplit from its `src`?"""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import homsplit; print(homsplit.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"homsplit was imported from {where}, not from the copy")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return result.returncode == 0


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "base"
        copy_tree(base)
        every_test = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
        if not run_tests(base, every_test):
            print("the unmutated tests fail; no mutant was run")
            return 1
        for number, mutant in enumerate(MUTANTS, start=1):
            tree = Path(scratch) / f"mutant{number}"
            shutil.copytree(base, tree)
            path = tree / mutant["file"]
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant["old"])
            if count != 1:
                print(f"{mutant['name']}: the edit matches {count} times, not once")
                failures += 1
                continue
            path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            killed = not run_tests(tree, mutant["tests"])
            print(f"{mutant['name']}: {'killed' if killed else 'SURVIVED'}")
            failures += not killed
            shutil.rmtree(tree)
    for mutant in EQUIVALENT:
        print(f"{mutant['name']}: equivalent, not run ({mutant['reason']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
