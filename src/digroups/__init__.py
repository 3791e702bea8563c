"""Finite digroup toolkit.

Digroups are group-like structures with two products and a distinguished
bar-unit; every element has a unique Liu inverse.  This package represents
finite digroups as pairs of Cayley tables and provides the axiom checker,
subdigroup lattice scans, homomorphism and isomorphism machinery with exact
canonical forms, translation representations with the diagonal (Cayley-style)
embedding, standard triples, and an exhaustive classifier for small orders.

``import digroups`` loads no submodule.  The first use of any public name
loads all of them at once (PEP 562), so a CLI command that imports only the
submodules it runs does not pay for the rest.
"""

import importlib

_HOMES = {
    "tables": (
        "ConstructionError",
        "DigroupError",
        "DigroupTable",
        "Element",
        "MalformedTableError",
        "Mapping",
        "UnsupportedOrderError",
        "ValidationReport",
        "Violation",
        "builtin",
        "commutes",
        "cyclic_group",
        "direct_product",
        "ensure_valid",
        "is_commutative",
        "is_group",
        "liu_inverse",
        "liu_inverse_map",
        "symmetric_group_3",
        "trivial_digroup",
        "validate_digroup",
    ),
    "subdigroups": (
        "SubsetMask",
        "all_subdigroups",
        "generated_subdigroup",
        "is_subdigroup",
        "restrict",
        "subdigroup_criteria",
    ),
    "morphisms": (
        "CanonicalTable",
        "automorphisms",
        "canonical_form",
        "find_isomorphism",
        "is_homomorphism",
        "relabel",
    ),
    "translations": (
        "ProductDigroup",
        "TranslationPair",
        "cayley_embedding",
        "left_translations",
        "pair_action",
        "phi",
        "right_translation_product",
        "right_translations",
        "translation_product_digroup",
        "verify_translation_identities",
    ),
    "triples": (
        "StandardTriple",
        "TransformSet",
        "TripleValidationError",
        "digroup_from_triple",
        "triple_from_digroup",
        "validate_triple",
    ),
    "search": (
        "CatalogEntry",
        "ClaimReport",
        "ClaimResult",
        "SearchOptions",
        "count_by_class",
        "enumerate_digroups",
        "naive_enumerate",
        "verify_classification_claims",
    ),
    "fileio": (
        "ParseError",
        "catalog_lines",
        "parse_catalog_line",
        "parse_digroup",
        "parse_triple",
        "render_table",
        "serialize_digroup",
        "serialize_embedding",
        "serialize_triple",
    ),
    "cli": ("run_cli",),
}

__all__ = sorted(name for names in _HOMES.values() for name in names)


def __getattr__(name):
    # All submodules load together: code that walks ``sys.modules`` for the
    # package's modules (span tracing, for one) finds every one of them.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _HOMES.items():
        module = importlib.import_module("." + module_name, __name__)
        for public in names:
            globals()[public] = getattr(module, public)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
