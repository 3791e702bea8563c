"""Homomorphisms, isomorphism search, and exact canonical forms.

A digroup homomorphism maps identity to identity and preserves both products.
Isomorphism is decided two ways that must agree: a backtracking search for a
bijective homomorphism, and equality of canonical forms.  The canonical form
of a table pair is the lexicographically least relabeling (flatten the left
table then the right table row-major) over all bijections sending the
identity to index 0; it is exact, not hash-based, so equal canonical tables
characterize isomorphism.

One walker, _reads_below, serves canonical_form, automorphisms and the
search's lex cut.  It walks the key depth first from the root and keeps
nothing between calls.  The key (_keys) is every cell, ⇀ then ↼, row-major;
the search's leaves out the cells it seeds.  A node of the walk pins some
labels: fwd gives each pinned element its label and inv each pinned label
its element, and the root pins only the identity 0 to label 0.  The node
stands for every identity-fixing relabeling p that agrees with its pins;
these give the unpinned elements F the free labels in every bijection.  All
of them tie the table T before the node's key position.  At key cell (x, y)
of table t, whose current value is cur (a cell T does not know yet stops the
node, since nothing in it can be compared there), the image of p is
p(t[p⁻¹x][p⁻¹y]), and the walk takes one of three steps.

- Uniform image.  The candidates are the pairs (p⁻¹x, p⁻¹y) over the node:
  a pinned label gives its element, a free one any element of F, two free
  labels x ≠ y distinct elements and x = y one.  A candidate whose value is
  pinned gives that value's label, and one whose value is its own unpinned
  operand gives that operand's label, x or y, whatever p is.  If every
  candidate gives one label so, every relabeling of the node gives it, and
  the node compares it with cur without branching.  Row e of ⇀ on a group
  (e⇀u = u) and every cell of trivial(n) are read so.
- Least free label.  If x and y are pinned and the value v is not, every
  relabeling of the node gives v a free label, none lower than the least
  free label L.  If L < cur, those that label v with L read below; if
  L = cur, those that label v higher read above; if L > cur, all read
  above.  So the node pins v to L when L <= cur and compares L with cur.
- Branch.  Otherwise the relabelings differ at the cell, or some candidate
  reads a cell T does not know yet, and the node branches: it pins x if x is
  free, else y, to each element of F in turn.  A child is visited only if one
  of its candidates may read cur or below there: one whose value is unknown
  stops there, and one whose image, or L if that depends on p, is above cur
  reads above.  So an unknown cell stops only the relabelings that read it.

A node that reads below returns its pins; all its relabelings tie T before
that cell and read below it there.  _reads_below returns None exactly when no
identity-fixing relabeling reads below T at its first decided cell.

A node that ties T to the end of the key has read every key cell, so T is
complete, and each relabeling of the node maps T to T: it is an
automorphism.  No node gets there on a partial table, whose ties need not be
automorphisms of its completions, so nothing is recorded there.  The node
records p0, which gives F the free labels in ascending order, and, since
p0∘π lies in the node for each permutation π of F, also π = p0⁻¹∘(p0∘π):
one transposition and one |F|-cycle of F, which generate Sym(F).  At a
branch point with pinned elements P, once child t is refuted (no relabeling
in its branch reads below T), a sibling u is skipped if some product α of
recorded automorphisms that fix P pointwise sends t to u, as nauty prunes
(McKay and Piperno 2014).  This is sound: for every relabeling σ′ in the u
branch, σ′∘α gives the same image, since α(T) = T, and σ′∘α labels P as σ′
does and t as σ′ labels u, so it lies in the t branch, where no image reads
below T.  The key cells are the same set under every identity-fixing
relabeling, so this holds for the search's key alone.

When a pass finds nothing below T, the automorphisms it recorded generate
Aut(T), the group of relabelings that tie T.  Call a node explored if
_reads_below ran on it; since nothing reads below T, each explored node ran
to its end.  Claim: every σ in Aut(T) that agrees with an explored node's
pins lies in the group G that the recorded automorphisms generate.  By
induction on the key positions left.  σ ties T, so at a least-free-label
cell it labels v with cur, as the node pins it, and σ keeps agreeing with
the node to where the node stops.  If the node reads above T there, no σ
agrees with it.  If it reaches the end of the key, σ = p0∘π for a
permutation π of F, and σ ∈ G.  Otherwise it branches on label ℓ, and σ
gives ℓ to some u in F.  A child that the filter drops reads above T at the
cell (T is complete, so no value is unknown), so σ is not in it.  If the u
child was explored, σ ∈ G by induction.  If u was skipped, a product β of
recorded automorphisms fixing P pointwise sends an explored child t to u;
then σ∘β is in Aut(T), labels P as σ does and t as σ labels u, so σ∘β ∈ G
by induction, and σ ∈ G.  Every σ in Aut(T) fixes the identity and agrees
with the root, so G = Aut(T).

canonical_form and automorphisms descend with the same walker over the full
key.  From the table re-indexed with e first, while _reads_below returns a
node, the table is re-indexed to the image of the node's p0, which reads
below the current image: the images strictly decrease, and the descent ends
at an image that no relabeling reads below, the canonical table.  If c is the
relabeling that gives it and G the group of the last pass, the relabelings
that give it are G∘c, the automorphisms of the table are c⁻¹∘G∘c, and the
certificate is the least element of G∘c.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .tables import DigroupTable, Mapping, MalformedTableError, UnsupportedOrderError
from .tables import _Record, _close, _reindex

# The walk itself reads trivial(n) and a group's row e without branching, but
# _canonical_relabelings closes the group G of the last pass as a set, the
# relabelings that give the canonical table: (n-1)! of them on trivial(n),
# 5,040 at order 8.
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


def _reads_below(val, cells, keys, n, autos, pos=0, fwd=None, inv=None):
    """A node whose relabelings all read below the table val at the last key
    cell it reads, returned as its pins fwd, or None if no relabeling reads
    below, found depth first from the node (fwd, inv) at key position pos,
    by default the root, where only the identity 0 has a label.

    val is the table flattened ⇀ then ↼ (-1 for unknown), and key position
    pos reads cell cells[pos] = base + x*n + y for keys[pos] = (base, x, y).
    fwd holds each element's label and inv each label's element, _FREE where
    unpinned.  Once val ties to the end, the node's relabelings are
    automorphisms, and autos gets one of them, a transposition and a cycle of
    the unpinned elements, each as a 256-byte translate table.  Siblings in
    the orbit of the refuted children under the automorphisms fixing every
    pinned element are skipped (see the module docstring)."""
    if fwd is None:
        fwd = inv = _BYTE[0] + bytes([_FREE]) * (n - 1)
    m = len(cells)
    while pos < m:
        cur = val[cells[pos]]
        if cur < 0:
            return None
        base, x, y = keys[pos]
        r, c = inv[x], inv[y]
        if r == _FREE or c == _FREE:
            img, live = _image(val, base, x, y, r, c, fwd, inv, cur, n)
            if img < 0:  # the node's relabelings differ here: branch
                break
        else:
            raw = val[base + r * n + c]
            if raw < 0:
                return None
            img = fwd[raw]
            if img == _FREE:  # the least free label
                img = inv.index(_FREE)
                if img <= cur:
                    fwd, inv = _pin(fwd, inv, raw, img)
        if img != cur:
            return fwd if img < cur else None
        pos += 1
    else:
        _record(fwd, autos)
        return None
    label = x if r == _FREE else y
    refuted = set()
    for u in live:
        if u in refuted:
            continue
        below = _reads_below(val, cells, keys, n, autos, pos, *_pin(fwd, inv, u, label))
        if below is not None:
            return below
        refuted.add(u)
        gens = [a for a in autos if inv.translate(a) == inv]
        if gens:
            _close(refuted, lambda w: [a[w] for a in gens])
    return None


def _image(val, base, x, y, r, c, fwd, inv, cur, n):
    """The label that every relabeling of the node gives key cell (base, x,
    y), whose row and column elements are r and c, _FREE where unpinned, or
    -1 if two of them differ there or one reads an unknown cell; and the
    unpinned elements that the row label, if it is free, else the column
    label, may take in a relabeling that reads cur or below there."""
    free = [u for u in range(n) if fwd[u] == _FREE]
    least = inv.index(_FREE)
    images, live = set(), {}
    for u in free if r == _FREE else (r,):
        for w in free if c == _FREE else (c,):
            if (u == w) != (x == y):
                continue
            raw = val[base + u * n + w]
            if raw < 0:
                images.add(-1)
                continue
            img = fwd[raw]
            if img == _FREE:  # an unpinned value is uniform only as an operand
                img = x if raw == u else y if raw == w else -1
            images.add(img)
            if (least if img < 0 else img) <= cur:
                live[u if r == _FREE else w] = None
    return (images.pop() if len(images) == 1 else -1), live


def _pin(fwd, inv, u, label):
    """The pins with element u labelled label."""
    return fwd[:u] + _BYTE[label] + fwd[u + 1 :], inv[:label] + _BYTE[u] + inv[label + 1 :]


def _complete(fwd):
    """The relabeling that gives the unpinned elements the free labels in
    ascending order."""
    labels = iter(sorted(set(range(len(fwd))).difference(fwd)))
    return bytes(next(labels) if v == _FREE else v for v in fwd)


def _record(fwd, autos):
    """Put on autos the relabelings of a node that ties to the end: one of
    them and, since each permutation of the unpinned elements F is then an
    automorphism, one transposition and one |F|-cycle of F, which generate
    Sym(F).  Each is a translate table that fixes _FREE, so inv.translate(a)
    == inv asks whether a fixes every pinned element."""
    tail = bytes(range(len(fwd), 256))
    autos.append(_complete(fwd) + tail)
    free = [u for u, v in enumerate(fwd) if v == _FREE]
    if len(free) > 1:
        swap, cycle = bytearray(range(len(fwd))), bytearray(range(len(fwd)))
        swap[free[0]], swap[free[1]] = free[1], free[0]
        for u, w in zip(free, free[1:] + free[:1]):
            cycle[u] = w
        autos.extend((bytes(swap) + tail, bytes(cycle) + tail))


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
        below = _reads_below(val, range(2 * n * n), _keys(n), n, gens)
        if below is None:
            break
        members = bytes(m for _, m in sorted(zip(_complete(below), members)))
    c = bytes.maketrans(members, bytes(range(n)))[:n]
    ties = {c}
    _close(ties, lambda p: map(p.translate, gens))
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


class CanonicalTable(_Record):
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
