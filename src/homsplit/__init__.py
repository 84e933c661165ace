"""Exact symbolic verification workbench for Hom-type splitting algebras.

Encodes finite-dimensional Hom-algebras (dendriform, diassociative,
triassociative, quadri- and six-dendriform, associative) as polynomial-valued
structure-constant tensors over exact rationals, checks every defining
identity symbolically, executes the structure-producing constructions
(splittings, products, quotients, operator-induced algebras), verifies
averaging / Rota-Baxter / relative averaging operators, and batch-verifies
the bundled corpus of low-dimensional classification tables.

The package root re-exports nothing: import each name from its module.

Public names that no code of the package names, and why each stays
(tests/test_reachability.py holds this list equal to a scan of the package):

    dendriform_templates, associative_templates, diassociative_templates,
    quadri_templates, triassociative_templates, six_templates, push_forward
        the benchmark (perfbench/workloads.py) calls them on every run
    verify_isomorphism, compose, matmul
        the benchmark's tracer times them (perfbench/tracing.py)
    load_representation, load_action
        cli reaches them as getattr(corpus, f"load_{shape}")
    quadri_embedding, six_embedding, graph_is_subalgebra, family_membership
        paper results with no command yet; demo 04 calls family_membership
    from_strings, basis_vector, action_to_dict, operator_to_dict
        test scaffolding: matrices, vectors and files written by hand
"""
