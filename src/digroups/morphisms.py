"""Homomorphisms, isomorphism search, and exact canonical forms.

A digroup homomorphism maps identity to identity and preserves both products.
Isomorphism is decided two ways that must agree: a backtracking search for a
bijective homomorphism, and equality of canonical forms.  The canonical form
of a table pair is the lexicographically least relabeling (flatten the left
table then the right table row-major) over all bijections sending the
identity to index 0; it is exact, not hash-based, so equal canonical tables
characterize isomorphism.

One engine enumerates the relabelings for canonical_form, automorphisms and
the search's lex cut, never listing all (n-1)! of them.  A partial relabeling
holds the elements labelled 0, 1, ... as bytes, the identity first, and
labels go out in the order the key reads its cells: cell (0, y) of row e of
⇀ branches over the unlabelled elements while label y is free, and a value
with no label takes the next free one, since no completion labels it lower
and any that labels it higher reads higher there.  The search drives the
partials against its own table (_lex_filter); canonical_form runs them in
lockstep, and they are whole relabelings once row e of ⇀ is read.

Once the search's table T is complete, the lex cut asks one question: does
some relabeling read below T?  _reads_below answers it from the root, depth
first, pruned with automorphisms as nauty prunes (McKay and Piperno 2014).
A relabeling that ties T to the end maps T to T, so it is an automorphism;
it is kept.  At a branch point with labelled prefix inv, once child t is
refuted (no completion in its branch reads below T), a sibling u is skipped
if some automorphism α found so far, or a product of them, fixes inv
pointwise and sends t to u.  This is sound: for every relabeling σ′ in the u
branch, σ′∘α gives the same image, since α(T) = T, and σ′∘α labels inv as
σ′ does and t as σ′ labels u, so it lies in the t branch, where no image
reads below T.  The key cells are the same set under every identity-fixing
relabeling, so this holds for the key alone.  Nothing like it holds for a
partial table, whose ties need not be automorphisms of its completions; so
the pass runs only on complete tables, and only when some tied partial is
not yet whole: when all are whole, as on groups, whose row e of ⇀ ties every
relabeling, no branch is left to prune and _lex_filter walks them as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .tables import DigroupTable, Mapping, MalformedTableError, UnsupportedOrderError, _reindex

# trivial(n) keeps all (n-1)! relabelings tied to the end: 5040 at order 8.
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
    """Whether a completion of the partial (inv, fwd, pos) reads below the
    complete table val, depth first; each one that ties val to the end is an
    automorphism and goes on autos as its 256-byte translate table.  Siblings
    in the orbit of the refuted children under the automorphisms fixing inv
    pointwise are skipped (see the module docstring)."""
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
            if img == cur:
                inv += _BYTE[raw]
                fwd = fwd[:raw] + _BYTE[img] + fwd[raw + 1 :]
        if img != cur:
            return img < cur
        pos += 1
    else:
        autos.append(fwd.ljust(256, b"\0"))
        return False
    refuted = set()
    for u in range(n):
        if fwd[u] != _FREE or u in refuted:
            continue
        child = fwd[:u] + _BYTE[y] + fwd[u + 1 :]
        if _reads_below(inv + _BYTE[u], child, pos, val, cells, keys, n, autos):
            return True
        gens = [a for a in autos if inv.translate(a) == inv]
        refuted.add(u)
        stack = list(refuted)
        while stack:
            w = stack.pop()
            for v in {a[w] for a in gens} - refuted:
                refuted.add(v)
                stack.append(v)
    return False


def _least_relabelings(table: DigroupTable) -> tuple[list[bytes], list[bytes]]:
    """The rows of the least image, ⇀ then ↼, and the image vectors of the
    relabelings that give it.  The partials run in lockstep and keep the
    least image: a cell at a time along row e of ⇀, then a row at a time."""
    n = table.order
    if n > _CANONICAL_CAP:
        raise UnsupportedOrderError(
            f"canonical form and automorphisms support order <= {_CANONICAL_CAP}, got {n}"
        )
    # rows as translate tables: inv.translate(row) lists row[inv[0]], ...
    left = [bytes(row).ljust(256, b"\0") for row in table.left]
    right = [bytes(row).ljust(256, b"\0") for row in table.right]
    row_e = left[table.identity]
    partials = [_BYTE[table.identity]]
    first = bytearray()
    for y in range(n):
        images = []
        for part in partials:
            free = range(n) if y == len(part) else ()
            for inv in [part + _BYTE[u] for u in free if u not in part] or [part]:
                raw = row_e[inv[y]]
                lab = inv.find(raw)
                if lab < 0:
                    lab = len(inv)
                    inv += _BYTE[raw]
                images.append((lab, inv))
        first.append(min(images)[0])
        partials = [inv for lab, inv in images if lab == first[-1]]

    # fwd translates each element to its label
    ties = [(inv, bytes.maketrans(inv, bytes(range(n)))) for inv in partials]
    rows = [bytes(first)]
    for rows_of, x in [(left, x) for x in range(1, n)] + [(right, x) for x in range(n)]:
        images = [(inv.translate(rows_of[inv[x]]).translate(fwd), inv, fwd) for inv, fwd in ties]
        rows.append(min(images)[0])
        ties = [(inv, fwd) for image, inv, fwd in images if image == rows[-1]]
    return rows, [fwd[:n] for _, fwd in ties]


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
    _, ties = _least_relabelings(table)
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
    rows, ties = _least_relabelings(table)
    n = table.order
    canon = DigroupTable(n, 0, rows[:n], rows[n:])
    return CanonicalTable(canon, Mapping(n, n, tuple(min(ties))))
