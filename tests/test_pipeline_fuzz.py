"""Seeded relabeling fuzz: every construction must be labeling-independent.

Random bijections (identity allowed to land anywhere) applied to every
class of orders 2..8 in the reference catalog are pushed through the whole
pipeline, ending with the canonical-form round trip.
"""

import random

from digroups import (
    Mapping,
    canonical_form,
    cayley_embedding,
    digroup_from_triple,
    find_isomorphism,
    relabel,
    restrict,
    right_translation_product,
    translation_product_digroup,
    triple_from_digroup,
    validate_digroup,
    validate_triple,
    verify_translation_identities,
)


def test_relabeled_digroups_survive_every_construction(reference_classes):
    rng = random.Random(20260808)
    for entry in reference_classes[1:]:  # order 1 has nothing to relabel
        n = entry.order
        for _ in range(3):
            images = list(range(n))
            rng.shuffle(images)
            table = relabel(entry.canonical, Mapping(n, n, tuple(images)))

            assert validate_digroup(table).ok
            assert verify_translation_identities(table).ok

            triple = triple_from_digroup(table)
            assert validate_triple(triple).ok
            built = digroup_from_triple(triple)
            flat = translation_product_digroup(table).table
            assert built.left == flat.left and built.right == flat.right
            assert built.identity == flat.identity

            emb = cayley_embedding(table)
            diag = restrict(emb.table, emb.diagonal)
            assert find_isomorphism(table, diag) is not None

            assert validate_digroup(right_translation_product(table).table).ok
            assert canonical_form(table).table == entry.canonical
