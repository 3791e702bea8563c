"""Machine check of the proofs, in the tables docstring, that DIASSOC_2 and
DIASSOC_4 follow from DIASSOC_1, DIASSOC_3, DIASSOC_5 and the bar-unit laws.

A term is a one-letter variable, the constant e, or ⇀ or ↼ applied to two
terms, written fully bracketed.  A law is a pair of terms.  A proof is a
chain of terms in which each step names one law; a step is accepted when the
two terms differ in one subterm only and that pair of subterms is an
instance of the law, read in either direction.  Nothing here reads the
package's law table or its evaluator.
"""

import pytest

from digroups.tables import DIGROUP_LAWS, _DIASSOC, _DIASSOC_BASIS

AXIOMS = {
    "D1": ("x⇀(y⇀z)", "(x⇀y)⇀z"),
    "D3": ("(x↼y)⇀z", "x↼(y⇀z)"),
    "D5": ("(x↼y)↼z", "x↼(y↼z)"),
    "BR": ("x⇀e", "x"),
    "BL": ("e↼x", "x"),
    "BS": ("x↼e", "e⇀x"),
}
THEOREMS = {"D2": ("(x⇀y)⇀z", "x⇀(y↼z)"), "D4": ("(x⇀y)↼z", "(x↼y)↼z")}
# Each proof is its first term, then (law, next term) per step; later
# proofs may cite the lemmas proved before them.
PROOFS = {
    "A": ("x⇀w", [("BR", "(x⇀e)⇀w"), ("D1", "x⇀(e⇀w)")]),
    "B": ("e⇀(y↼z)", [
        ("BS", "(y↼z)↼e"), ("D5", "y↼(z↼e)"), ("BS", "y↼(e⇀z)"),
        ("D3", "(y↼e)⇀z"), ("BS", "(e⇀y)⇀z"), ("D1", "e⇀(y⇀z)"),
    ]),
    "C": ("u↼z", [("BL", "u↼(e↼z)"), ("D5", "(u↼e)↼z"), ("BS", "(e⇀u)↼z")]),
    "D2": ("(x⇀y)⇀z", [
        ("D1", "x⇀(y⇀z)"), ("A", "x⇀(e⇀(y⇀z))"),
        ("B", "x⇀(e⇀(y↼z))"), ("A", "x⇀(y↼z)"),
    ]),
    "D4": ("(x⇀y)↼z", [
        ("C", "(e⇀(x⇀y))↼z"), ("B", "(e⇀(x↼y))↼z"), ("C", "(x↼y)↼z"),
    ]),
}


def parse(text):
    """A variable or e as itself, a product as (op, left, right)."""

    def operand(i):
        if text[i] != "(":
            return text[i], i + 1
        term, i = expression(i + 1)
        assert text[i] == ")", text
        return term, i + 1

    def expression(i):
        left, i = operand(i)
        if i == len(text) or text[i] not in "⇀↼":
            return left, i
        right, j = operand(i + 1)
        return (text[i], left, right), j

    term, end = expression(0)
    assert end == len(text), text
    return term


def match(pattern, term, sub):
    """Whether sub extends to a substitution taking pattern to term."""
    if isinstance(pattern, str) and pattern != "e":
        return sub.setdefault(pattern, term) == term
    if isinstance(pattern, str) or isinstance(term, str):
        return pattern == term
    return (
        pattern[0] == term[0]
        and match(pattern[1], term[1], sub)
        and match(pattern[2], term[2], sub)
    )


def one_step(s, t, law):
    """Whether t is s with one subterm rewritten by an instance of law."""
    lhs, rhs = law
    for a, b in ((lhs, rhs), (rhs, lhs)):
        sub = {}
        if match(a, s, sub) and match(b, t, sub):
            return True
    if isinstance(s, str) or isinstance(t, str) or s[0] != t[0]:
        return False
    return (s[1] == t[1] and one_step(s[2], t[2], law)) or (
        s[2] == t[2] and one_step(s[1], t[1], law)
    )


def check(proofs):
    """The laws the proofs establish, each step checked against the axioms
    and the lemmas proved before it; AssertionError names a bad step."""
    laws = {name: tuple(map(parse, sides)) for name, sides in AXIOMS.items()}
    for name, (first, steps) in proofs.items():
        start = term = parse(first)
        for law, text in steps:
            nxt = parse(text)
            assert one_step(term, nxt, laws[law]), (name, law, text)
            term = nxt
        laws[name] = (start, term)
    return laws


def test_the_proofs_check_and_prove_diassoc_2_and_4():
    laws = check(PROOFS)
    for name, sides in THEOREMS.items():
        assert laws[name] == tuple(map(parse, sides))


def test_a_chain_with_one_wrong_step_is_refused():
    first, steps = PROOFS["D4"]
    for i, bad in enumerate(["(e↼(x⇀y))↼z", "(e⇀(y↼x))↼z", "(y↼x)↼z"]):
        broken = steps[:i] + [(steps[i][0], bad)] + steps[i + 1:]
        with pytest.raises(AssertionError):
            check({**PROOFS, "D4": (first, broken)})
    with pytest.raises(AssertionError):  # a right term under the wrong law
        check({**PROOFS, "C": ("u↼z", [("BR", "u↼(e↼z)")] + PROOFS["C"][1][1:])})


def test_the_search_leaves_out_exactly_the_laws_proved():
    enforced = {DIGROUP_LAWS[k] for k in _DIASSOC_BASIS}
    assert enforced == {"DIASSOC_" + name[1] for name in AXIOMS if name[0] == "D"}
    left_out = set(DIGROUP_LAWS[:5]) - enforced
    assert left_out == {"DIASSOC_" + name[1] for name in THEOREMS}


def test_the_laws_here_are_the_laws_the_validator_checks():
    # _DIASSOC's sides are (nested, a, b) for x a (y b z) or (x a y) b z, with
    # 0 for ⇀ and 1 for ↼; rendered back to text, they must be the laws above
    def text(nested, a, b):
        a, b = "⇀↼"[a], "⇀↼"[b]
        return f"x{a}(y{b}z)" if nested else f"(x{a}y){b}z"

    stated = {**AXIOMS, **THEOREMS}
    for k, sides in enumerate(_DIASSOC):
        assert tuple(text(*side) for side in sides) == stated[f"D{k + 1}"]
