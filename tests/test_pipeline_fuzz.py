"""Seeded relabeling fuzz: every construction must be labeling-independent.

Random bijections (identity allowed to land anywhere) applied to every
enumerated class of orders 2..7 are pushed through the whole pipeline.
"""

import random

from digroups import (
    Mapping,
    SearchOptions,
    canonical_form,
    cayley_embedding,
    digroup_from_triple,
    enumerate_digroups,
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


def test_relabeled_digroups_survive_every_construction(catalogs):
    rng = random.Random(20260808)
    pools = {**catalogs, 7: enumerate_digroups(7, SearchOptions(allow_large=True))}
    for n in range(2, 8):
        for entry in pools[n]:
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
