"""Homomorphisms, isomorphism search, and exact canonical forms.

A digroup homomorphism maps identity to identity and preserves both products.
Isomorphism is decided two ways that must agree: a backtracking search for a
bijective homomorphism, and equality of canonical forms.  The canonical form
of a table pair is the lexicographically least relabeling (flatten the left
table then the right table row-major) over all bijections sending the
identity to index 0; it is exact, not hash-based, so equal canonical tables
characterize isomorphism.

One walker enumerates the relabelings for canonical_form, automorphisms and
the search's lex cut; the walk never lists all (n-1)! of them.  A partial
relabeling holds the elements labelled 0, 1, ... as bytes, the identity
first, and labels go out in the order the key reads its cells: cell (0, y)
of row e of ⇀ branches over the unlabelled elements while label y is free,
and a value with no label takes the next free one, since no completion
labels it lower and any that labels it higher reads higher there.  The
partials are whole relabelings once row e of ⇀ is read.  The key (_keys) is
every cell, ⇀ then ↼, row-major; the search's leaves out the cells it
seeds.  The search drives the partials against its open table, breadth
first (_lex_filter).

On a complete table T, _reads_below asks whether some relabeling reads
below T and answers from the root, depth first, pruned with automorphisms as
nauty prunes (McKay and Piperno 2014).  A relabeling that ties T to the end
maps T to T, so it is an automorphism; it is recorded.  At a branch point
with labelled prefix inv, once child t is refuted (no completion in its
branch reads below T), a sibling u is skipped if some automorphism α
recorded so far, or a product of them, fixes inv pointwise and sends t to u.
This is sound: for every relabeling σ′ in the u branch, σ′∘α gives the same
image, since α(T) = T, and σ′∘α labels inv as σ′ does and t as σ′ labels u,
so it lies in the t branch, where no image reads below T.  The key cells are
the same set under every identity-fixing relabeling, so this holds for the
search's key alone.  Nothing like it holds for a partial table, whose ties
need not be automorphisms of its completions; so the search runs the pass
only on complete tables, and only when some tied partial is not yet whole:
when all are whole, as on groups, whose row e of ⇀ ties every relabeling, no
branch is left to prune and _lex_filter walks them as before.

When a pass finds nothing below T, the automorphisms it recorded generate
Aut(T), the group of relabelings that tie T.  Call a node of the pass
explored if _reads_below ran on it; since nothing reads below T, each
explored node ran to its end.  Claim: every σ in Aut(T) that labels an
explored node's prefix as the node does lies in the group G that the
recorded automorphisms generate.  By induction on the key positions left.
σ ties T, so at each of the node's cells that labels a new value, σ labels
it alike, and σ keeps agreeing with the node to where the node stops.  If
the node reads above T there, no σ agrees with it.  If it reaches the end
of the key, it is whole and ties T, so it is σ, and σ was recorded.
Otherwise it branches on a prefix inv, and σ gives the free label to some
unlabelled u.  If the u child was explored, σ ∈ G by induction.  If u was
skipped, a product β of recorded automorphisms fixing inv pointwise sends an
explored child t to u; then σ∘β is in Aut(T), labels inv as σ does and t as
σ labels u, so σ∘β ∈ G by induction, and σ ∈ G.  Every σ in Aut(T) fixes
the identity and agrees with the root, so G = Aut(T).

canonical_form and automorphisms descend with the same pass over the full
key.  From the table re-indexed with e first, while _reads_below returns a
partial whose image reads below the current image, the partial is completed
with the unlabelled elements in ascending order and the table is re-indexed
to that image.  The partial labels every element that its last cell reads,
the value too, so every completion ties before that cell and reads below at
it: the images strictly decrease, and the descent ends at an image that no
relabeling reads below, the canonical table.  If c is the relabeling that
gives it and G the group of the last pass, the relabelings that give it are
G∘c, the automorphisms of the table are c⁻¹∘G∘c, and the certificate is the
least element of G∘c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .tables import DigroupTable, Mapping, MalformedTableError, UnsupportedOrderError, _reindex

# A group ties every relabeling through row e of ⇀ before any automorphism is
# known, so the walk meets up to (n-1)! whole relabelings (Z10 takes 2 s), and
# the relabelings that give the canonical table are listed: (n-1)! of them on
# trivial(n), 5040 at order 8.
_CANONICAL_CAP = 8

_FREE = 255
_BYTE = tuple(bytes((v,)) for v in range(256))


def relabel(table: DigroupTable, perm: Mapping) -> DigroupTable:
    """Apply a bijective relabeling: new[p(x)][p(y)] = p(old[x][y])."""
    if not perm.is_bijection() or perm.domain_size != table.order:
        raise MalformedTableError("relabeling must be a bijection of the carrier")
    return _reindex(table, perm.inverse().image)


def is_homomorphism(d1: DigroupTable, d2: DigroupTable, m: Mapping) -> bool:
    """True iff m maps identity to identity and preserves both products."""
    if m.domain_size != d1.order or m.codomain_size != d2.order:
        return False
    if m(d1.identity) != d2.identity:
        return False
    for x in d1.elements():
        mx = m(x)
        for y in d1.elements():
            my = m(y)
            if m(d1.left[x][y]) != d2.left[mx][my]:
                return False
            if m(d1.right[x][y]) != d2.right[mx][my]:
                return False
    return True


@lru_cache(maxsize=None)
def _keys(n: int) -> tuple[tuple[int, int, int], ...]:
    """The canonical key order as (table base, x, y): every cell, ⇀ then ↼,
    row-major."""
    return tuple((base, x, y) for base in (0, n * n) for x in range(n) for y in range(n))


def _first_partial(n: int):
    """The partial relabeling _lex_filter starts from: e = 0 labelled 0."""
    return (0, _BYTE[0], _BYTE[0] + bytes([_FREE]) * (n - 1), 0)


def _lex_filter(active, val, cells, keys, n):
    """Advance partial relabelings (wait, inv, fwd, pos) against a partly
    known table and return those still tied with it, or None if an image
    reads below it: then no completion of the table is lex-least.

    val is the table flattened ⇀ then ↼ (-1 for unknown); key position pos
    reads cell cells[pos] = base + x*n + y for keys[pos] = (base, x, y).  fwd
    holds each element's label or _FREE.  A partial ties val before pos, and
    is skipped while wait, the unknown cell that stopped it (0 if none), is.

    Once every key cell is known and some partial is not yet whole, the
    answer comes from the root with automorphism pruning (_reads_below), and
    [] stands for "none reads below"."""
    m = len(cells)
    if min(map(val.__getitem__, cells), default=0) >= 0 and any(
        len(item[1]) < n for item in active
    ):
        return None if _reads_below(*_first_partial(n)[1:], val, cells, keys, n, []) else []
    out = []
    keep = out.append
    while active:
        branched = []
        for item in active:
            if val[item[0]] < 0:
                keep(item)
                continue
            _, inv, fwd, pos = item
            while pos < m:
                wait = cells[pos]
                cur = val[wait]
                if cur < 0:
                    break
                base, x, y = keys[pos]
                try:
                    wait = base + inv[x] * n + inv[y]
                except IndexError:  # label y is free
                    for u in range(n):
                        if fwd[u] == _FREE:
                            child = fwd[:u] + _BYTE[y] + fwd[u + 1 :]
                            branched.append((0, inv + _BYTE[u], child, pos))
                    break
                raw = val[wait]
                if raw < 0:
                    break
                img = fwd[raw]
                if img != cur:
                    if img == _FREE:
                        img = len(inv)
                        if img == cur:
                            inv += _BYTE[raw]
                            fwd = fwd[:raw] + _BYTE[img] + fwd[raw + 1 :]
                            pos += 1
                            continue
                    if img < cur:
                        return None
                    break
                pos += 1
            else:
                keep((0, inv, fwd, pos))
                continue
            if val[wait] < 0:
                keep((wait, inv, fwd, pos))
        active = branched
    return out


def _reads_below(inv, fwd, pos, val, cells, keys, n, autos):
    """An extension of the partial (inv, fwd, pos) whose image reads below
    the complete table val at the last key cell it reads, or None if none
    does, found depth first; it labels every element that cell reads, its
    value too.  Each relabeling that ties val to the end is an automorphism
    and goes on autos as its 256-byte translate table.  Siblings in the orbit
    of the refuted children under the automorphisms fixing inv pointwise are
    skipped (see the module docstring)."""
    m = len(cells)
    while pos < m:
        base, x, y = keys[pos]
        if y >= len(inv):  # label y is free: branch
            break
        cur = val[cells[pos]]
        raw = val[base + inv[x] * n + inv[y]]
        img = fwd[raw]
        if img == _FREE:
            img = len(inv)
            if img <= cur:
                inv += _BYTE[raw]
                fwd = fwd[:raw] + _BYTE[img] + fwd[raw + 1 :]
        if img != cur:
            return inv if img < cur else None
        pos += 1
    else:
        autos.append(fwd.ljust(256, b"\0"))
        return None
    refuted = set()
    for u in range(n):
        if fwd[u] != _FREE or u in refuted:
            continue
        child = fwd[:u] + _BYTE[y] + fwd[u + 1 :]
        below = _reads_below(inv + _BYTE[u], child, pos, val, cells, keys, n, autos)
        if below is not None:
            return below
        gens = [a for a in autos if inv.translate(a) == inv]
        refuted.add(u)
        _close(refuted, lambda w: [a[w] for a in gens])
    return None


def _close(found: set, step) -> None:
    """Add to found every value that step, which maps a value to an iterable
    of its images, reaches from a member."""
    stack = list(found)
    while stack:
        for v in step(stack.pop()):
            if v not in found:
                found.add(v)
                stack.append(v)


def _canonical_relabelings(table: DigroupTable) -> tuple[DigroupTable, list[bytes]]:
    """The least image of the table and the image vectors of the relabelings
    that give it, ascending: ⟨gens⟩∘c for the relabeling c the descent ends
    on and the automorphisms gens its last pass records."""
    n = table.order
    if n > _CANONICAL_CAP:
        raise UnsupportedOrderError(
            f"canonical form and automorphisms support order <= {_CANONICAL_CAP}, got {n}"
        )
    # members lists the elements in label order, the identity first
    members = bytes(sorted(range(n), key=lambda x: x != table.identity))
    while True:
        image = _reindex(table, members)
        val = [v for rows in (image.left, image.right) for row in rows for v in row]
        gens = []
        inv = _reads_below(*_first_partial(n)[1:], val, range(2 * n * n), _keys(n), n, gens)
        if inv is None:
            break
        inv += bytes(u for u in range(n) if u not in inv)
        members = bytes(members[i] for i in inv)
    c = bytes.maketrans(members, bytes(range(n)))[:n]
    ties, kept = {c}, []
    for g in gens:
        if c.translate(g) not in ties:  # g enlarges the group; close it again
            kept.append(g)
            _close(ties, lambda p: map(p.translate, kept))
    return DigroupTable(n, 0, image.left, image.right), sorted(ties)


def find_isomorphism(d1: DigroupTable, d2: DigroupTable) -> Optional[Mapping]:
    """A bijective homomorphism d1 -> d2 if one exists, else None.

    Backtracking over images in ascending order with forced-product
    propagation: once m[x] and m[y] are set, m[x*y] is forced for both
    products.  The mapping returned is the lexicographically least.
    """
    # f(e⇀x) = e′⇀f(x), so an isomorphism maps the core {e⇀x} onto the core.
    if d1.order != d2.order or len(set(d1.left[d1.identity])) != len(set(d2.left[d2.identity])):
        return None
    n = d1.order
    image = [-1] * n
    products = ((d1.left, d2.left), (d1.right, d2.right))

    def extend(queue: list[tuple[int, int]]) -> Optional[Mapping]:
        # Assign each queued (source, image) pair and the products it forces,
        # then branch on the least unassigned source; undo on failure.
        trail = []
        while queue:
            a, b = queue.pop()
            if image[a] != -1:
                if image[a] == b:
                    continue
                break
            if b in image:
                break
            image[a] = b
            trail.append(a)
            for c in range(n):
                if image[c] != -1:
                    for t1, t2 in products:
                        queue.append((t1[a][c], t2[b][image[c]]))
                        queue.append((t1[c][a], t2[image[c]][b]))
        else:
            if -1 not in image:
                return Mapping(n, n, tuple(image))
            pos = image.index(-1)
            for v in range(n):
                if v not in image and (found := extend([(pos, v)])) is not None:
                    return found
        for a in trail:
            image[a] = -1
        return None

    return extend([(d1.identity, d2.identity)])


def automorphisms(table: DigroupTable) -> list[Mapping]:
    """All bijective self-homomorphisms, in lexicographic order: c⁻¹∘p for
    one relabeling c and each relabeling p that gives the canonical table."""
    _, ties = _canonical_relabelings(table)
    n = table.order
    back = bytes.maketrans(ties[0], bytes(range(n)))
    return [Mapping(n, n, tuple(image)) for image in sorted(p.translate(back) for p in ties)]


@dataclass(frozen=True)
class CanonicalTable:
    """The lex-least identity-normalizing relabeling of a table pair, plus the
    relabeling that realizes it."""

    table: DigroupTable
    certificate: Mapping


def canonical_form(table: DigroupTable) -> CanonicalTable:
    """Exact lex-min canonical form over all identity-fixing relabelings.

    Two validated digroups are isomorphic iff their canonical tables are
    equal.  Labels are dropped; the certificate recovers the relabeling, and
    among the relabelings that tie it is the least image vector.
    """
    canon, ties = _canonical_relabelings(table)
    n = table.order
    return CanonicalTable(canon, Mapping(n, n, tuple(ties[0])))
