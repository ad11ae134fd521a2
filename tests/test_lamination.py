import importlib.resources as resources
from fractions import Fraction as F

import pytest

from ripslab.fileformat import parse_system
from ripslab.lamination import (
    LeafWord,
    NotReduced,
    admissible_words,
    dotted_words,
    inverse_label,
    leaves_at,
    limit_set,
    word_domain,
)
from ripslab.rips import lineage, rips_step

from oracles import brute_leaves_at, brute_word_domain


def corpus(name):
    return parse_system(str(resources.files("ripslab") / "corpus" / name))


@pytest.fixture(scope="module")
def e_surf():
    return corpus("e_surf.bands")


@pytest.fixture(scope="module")
def e_trim():
    return corpus("e_trim.bands")


def test_inverse_label():
    assert inverse_label("a") == "a'"
    assert inverse_label("a'") == "a"
    assert inverse_label("a.0_1'") == "a.0_1"


def test_word_domain_single_letter(e_surf):
    assert word_domain(e_surf, "a") == e_surf.band("a").domain
    assert word_domain(e_surf, ["b'"]) == e_surf.band("b").range


def test_word_domain_composition(e_surf):
    # b after a: need a(x) in [0,1], i.e. x + 1 <= 1.
    d = word_domain(e_surf, "a b")
    assert d.is_point
    assert d.single_point() == e_surf.forest.point("e0", 0)


def test_word_domain_empty(e_surf):
    assert word_domain(e_surf, "b b").is_empty


def test_word_domain_empty_word(e_surf):
    assert word_domain(e_surf, []) == e_surf.support


def test_not_reduced(e_surf):
    with pytest.raises(NotReduced):
        word_domain(e_surf, "a a'")
    with pytest.raises(NotReduced):
        word_domain(e_surf, ["b'", "b"])


def test_admissible_words_prefix_closed(e_surf):
    words = admissible_words(e_surf, 3)
    have = {w for w, _ in words}
    doms = {w: d for w, d in words}
    for w in have:
        assert 1 <= len(w) <= 3
        if len(w) > 1:
            assert w[:-1] in have
            assert doms[w].issubset(doms[w[:-1]])


def test_admissible_words_count_bound(e_surf):
    n2 = len(e_surf.elements())
    for depth in (1, 2, 3):
        bound = sum(n2 * (n2 - 1) ** (k - 1) for k in range(1, depth + 1))
        assert len(admissible_words(e_surf, depth)) <= bound


def test_admissible_words_deterministic(e_trim):
    a = [(w, d._sort_key()) for w, d in admissible_words(e_trim, 3)]
    b = [(w, d._sort_key()) for w, d in admissible_words(e_trim, 3)]
    assert a == b


@pytest.mark.parametrize("name,depth", [("e_surf.bands", 3),
                                        ("e_trim.bands", 3)])
def test_word_domain_matches_oracle(name, depth):
    s = corpus(name)
    for w, dom in admissible_words(s, depth):
        assert dom == brute_word_domain(s, w)


def test_nonadmissible_word_matches_oracle(e_surf):
    for w in (("b", "b"), ("b", "a'"), ("a", "a", "b")):
        assert word_domain(e_surf, w) == brute_word_domain(e_surf, w)


def test_limit_set_antitone(e_surf, e_trim):
    for s in (e_surf, e_trim):
        prev = None
        for depth in (1, 2, 3):
            cur = limit_set(s, depth)
            assert cur.depth == depth
            assert cur.subforest.issubset(s.support)
            if prev is not None:
                assert cur.subforest.issubset(prev.subforest)
            prev = cur


def test_limit_set_depth_one_surface(e_surf):
    assert limit_set(e_surf, 1).subforest == e_surf.support


def test_dotted_words_reversal_canonical(e_trim):
    for leaf in dotted_words(e_trim, 2):
        assert leaf.left <= leaf.right
        assert leaf.left[0] != leaf.right[0]
        assert not leaf.domain.is_empty


def test_leaves_at_matches_oracle(e_surf, e_trim):
    for s, depth in ((e_surf, 3), (e_trim, 2)):
        f = s.forest
        probes = [f.point("e0", 0), f.point("e0", F(1, 2)),
                  f.point("e0", 1)]
        for x in probes:
            got = sorted(leaf.key() for leaf in leaves_at(s, x, depth))
            assert got == brute_leaves_at(s, x, depth)


def test_leaves_at_dead_point(e_trim):
    # (1/2, 6/10) carries no band at all after one letter on the left.
    x = e_trim.forest.point("e0", F(11, 20))
    assert leaves_at(e_trim, x, 2) == []


def test_leaf_word_str(e_surf):
    leaf = LeafWord(("a'", "b"), ("b",), e_surf.support)
    assert str(leaf) == "b' a.b"


def test_letter_lineage():
    assert lineage("a.0_1") == "a"
    assert lineage("a.0_1'") == "a'"
    assert lineage("a") == "a"


def test_rips_equivariance(e_trim):
    s1 = rips_step(e_trim)
    for w1, d1 in admissible_words(s1, 2):
        w0 = tuple(lineage(x) for x in w1)
        d0 = word_domain(e_trim, w0)
        assert d1.issubset(d0)
