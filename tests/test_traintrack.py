import importlib.resources as resources

import pytest
from hypothesis import given, settings, strategies as st

from ripslab.scalar import count_roots
from ripslab.traintrack import (
    TrainTrackError,
    _charpoly,
    _pf_eigenvector,
    _pf_field,
    _primitivity_exponent,
    MapSyntaxError,
    MissingInverse,
    NotPrimitive,
    NotRotationless,
    RoseMap,
    UnknownGenerator,
    check_train_track,
    direction_dynamics,
    is_rotationless,
    load_map,
    parse_map,
    rotationless_power,
    stable_whitehead_graph,
    taken_turns,
    transition,
    transition_matrix,
    verify_automorphism,
)

from oracles import (
    brute_fixed_directions,
    brute_periodic_directions,
    brute_stable_whitehead,
    brute_taken_turns,
    sympy_pf_eigenvector,
    sympy_pf_field,
)


def corpus_map(name):
    return load_map(str(resources.files("ripslab") / "corpus" / name))


def compose(outer, inner):
    """The map x -> outer(inner(x)); generators must agree."""
    assert outer.generators == inner.generators
    return RoseMap(outer.generators,
                   {g: outer.apply(inner.images[g]) for g in outer.generators})


def periodic_directions(dm):
    """Direction -> period, for the directions on the orbits of dm."""
    return {d: period for orbit, period in dm.orbits for d in orbit}


@pytest.fixture(scope="module")
def trib():
    return corpus_map("tribonacci.map")


@pytest.fixture(scope="module")
def fib():
    return corpus_map("fibonacci.map")


IDENTITY = parse_map("a -> a; b -> b inverse a -> a; b -> b")
BAD_TT = parse_map("a -> b; b -> Ab")


def test_parse_bare_grammar():
    m = parse_map("a->ab; b->ac; c->a")
    assert m.generators == ("a", "b", "c")
    assert m.images == {"a": "ab", "b": "ac", "c": "a"}
    assert m.inverse_images is None and m.warnings == ()


def test_parse_missing_separator():
    with pytest.raises(MapSyntaxError):
        parse_map("a->a b->b")


def test_parse_mixed_sign():
    m = parse_map("a->aBA; b->a")
    assert m.rank == 2 and m.images["a"] == "aBA"


def test_parse_unreduced_with_warning():
    m = parse_map("a->abB; b->a")
    assert m.images["a"] == "a"
    assert any("reduced" in w for w in m.warnings)


def test_parse_identity_image_rejected():
    with pytest.raises(MapSyntaxError):
        parse_map("a->aA; b->a")


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_map("a->ab; b->ac")


def test_verify_automorphism(trib, fib):
    ok, transcript = verify_automorphism(trib)
    assert ok and transcript[-1] == "identity on every generator"
    assert verify_automorphism(fib)[0]
    assert verify_automorphism(IDENTITY)[0]


def test_verify_missing_inverse():
    with pytest.raises(MissingInverse):
        verify_automorphism(parse_map("a->ab; b->a"))


def test_verify_corrupted_inverse():
    m = parse_map("a->ab; b->b inverse a->ab; b->b")
    ok, transcript = verify_automorphism(m)
    assert not ok
    assert transcript[-1] == "composition is not the identity"
    assert any("= abb" in line or "abb" in line for line in transcript)


def test_transition_tribonacci(trib):
    td = transition(trib)
    assert td.matrix == ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    assert td.primitivity_exponent == 3
    assert td.minimal_polynomial() == (-1, -1, -1, 1)
    assert abs(float(td.dilatation.to_decimal(6)) - 1.8392867552141612) < 1e-6
    lam = td.dilatation
    one = td.field.rational(1)
    assert td.eigenvector == (lam * lam, lam, one)


def test_transition_residual_zero(trib, fib):
    for m in (trib, fib):
        td = transition(m)
        n = len(td.matrix)
        for i in range(n):
            resid = sum((td.field.rational(td.matrix[i][j]) * td.eigenvector[j]
                         for j in range(n)), td.field.zero())
            assert (resid - td.dilatation * td.eigenvector[i]).is_zero()


def test_transition_fibonacci(fib):
    td = transition(fib)
    assert td.matrix == ((1, 1), (1, 0))
    assert td.minimal_polynomial() == (-1, -1, 1)
    assert td.eigenvector == (td.field.gen, td.field.rational(1))
    assert abs(float(td.dilatation.to_decimal(12)) - 1.6180339887498949) < 1e-9


def test_not_primitive_permutation():
    with pytest.raises(NotPrimitive) as exc:
        transition(parse_map("a->b; b->a"))
    assert exc.value.witness


def test_not_primitive_reducible():
    with pytest.raises(NotPrimitive) as exc:
        transition(parse_map("a->ab; b->b"))
    assert "sub-block" in str(exc.value)


def test_matrix_multiplicative_on_positive_maps():
    f = parse_map("a->abc; b->a; c->b")
    g = parse_map("a->ab; b->bc; c->ca")

    def mul(x, y):
        n = len(x)
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    assert transition_matrix(compose(f, g)) == \
        mul(transition_matrix(f), transition_matrix(g))


def test_direction_dynamics_tribonacci(trib):
    dm = direction_dynamics(trib)
    assert dm.table == {"a": "a", "b": "a", "c": "a",
                        "A": "B", "B": "C", "C": "A"}
    assert dm.fixed == ("a",)
    assert (("A", "B", "C"), 3) in dm.orbits
    assert periodic_directions(dm) == {"a": 1, "A": 3, "B": 3, "C": 3}


def test_direction_dynamics_identity():
    dm = direction_dynamics(IDENTITY)
    assert dm.fixed == ("a", "b", "A", "B")
    assert all(period == 1 for _, period in dm.orbits)


def test_direction_dynamics_swap():
    dm = direction_dynamics(parse_map("a->b; b->a"))
    assert dm.fixed == ()
    assert sorted(period for _, period in dm.orbits) == [2, 2]


def test_direction_dynamics_matches_oracle(trib, fib):
    for m in (trib, fib):
        dm = direction_dynamics(m)
        assert sorted(dm.fixed) == brute_fixed_directions(m.images)
        assert periodic_directions(dm) == brute_periodic_directions(m.images)


def test_rotationless(trib, fib):
    assert not is_rotationless(trib)
    p, m3 = rotationless_power(trib)
    assert p == 3 and is_rotationless(m3)
    assert is_rotationless(IDENTITY)
    assert rotationless_power(IDENTITY)[0] == 1
    assert rotationless_power(fib)[0] == 2


def test_iterate_direction_table(trib):
    """Df of f^p is the p-th functional iterate of Df."""
    p, m3 = rotationless_power(trib)
    table = direction_dynamics(trib).table
    table3 = direction_dynamics(m3).table
    for d in trib.directions():
        cur = d
        for _ in range(p):
            cur = table[cur]
        assert table3[d] == cur


def test_check_train_track_good(trib, fib):
    assert check_train_track(trib) == (True, None)
    assert check_train_track(fib) == (True, None)


def test_check_train_track_failure_witness():
    ok, witness = check_train_track(BAD_TT)
    assert not ok
    turn, j = witness
    assert turn in [tuple(sorted(t)) for t in
                    __import__("oracles").brute_taken_turns(BAD_TT.images, 4)]
    d1, d2 = turn
    table = direction_dynamics(BAD_TT).table
    for _ in range(j):
        d1, d2 = table[d1], table[d2]
    assert d1 == d2


def test_taken_turns_matches_oracle_on_rotationless_powers(trib, fib):
    for m in (trib, fib):
        _, mp = rotationless_power(m)
        for budget in range(1, 9):
            want = brute_taken_turns(mp.images, budget)
            assert taken_turns(mp, budget) == want, budget
        # The levels repeat by then, so a huge budget costs no more.
        assert taken_turns(mp, 10 ** 9) == want


def test_taken_turns_matches_oracle_before_rotationless_power(trib, fib):
    for m in (trib, fib, BAD_TT):
        for budget in range(1, 7):
            assert taken_turns(m, budget) == \
                brute_taken_turns(m.images, budget), budget


@st.composite
def small_maps(draw):
    gens = "abc"[:draw(st.integers(2, 3))]
    words = st.lists(st.sampled_from(gens + gens.upper()),
                     min_size=1, max_size=3).map("".join)
    return RoseMap(tuple(gens), {g: draw(words) for g in gens})


@settings(max_examples=300, deadline=None)
@given(small_maps(), st.integers(1, 4))
def test_taken_turns_matches_oracle_on_random_maps(m, budget):
    """Many of these maps cancel and take the word-expansion fallback;
    their images need not be reduced, and may reduce to nothing."""
    assert taken_turns(m, budget) == brute_taken_turns(m.images, budget)


def test_swg_requires_rotationless(trib):
    with pytest.raises(NotRotationless):
        stable_whitehead_graph(trib, 4)


def test_swg_tribonacci_matches_oracle(trib):
    _, m3 = rotationless_power(trib)
    g = stable_whitehead_graph(m3, 6)
    verts, edges = brute_stable_whitehead(m3.images, 6)
    assert list(g.vertices) == verts
    assert list(g.edges) == edges


def test_swg_fibonacci_matches_oracle(fib):
    _, m2 = rotationless_power(fib)
    g = stable_whitehead_graph(m2, 4)
    verts, edges = brute_stable_whitehead(m2.images, 4)
    assert list(g.vertices) == verts
    assert list(g.edges) == edges
    assert ("A", "a") in g.edges or ("B", "a") in g.edges


def test_swg_monotone_and_stable(trib):
    _, m3 = rotationless_power(trib)
    prev = None
    stable_runs = 0
    for budget in range(1, 9):
        edges = set(stable_whitehead_graph(m3, budget).edges)
        if prev is not None:
            assert prev <= edges
            stable_runs = stable_runs + 1 if edges == prev else 0
        prev = edges
    assert stable_runs >= 3


def test_swg_identity_no_edges():
    g = stable_whitehead_graph(IDENTITY, 3)
    assert g.edges == ()
    assert g.vertices == ("A", "B", "a", "b")
    dot = g.to_dot()
    assert dot.count(" -- ") == 0 and '"a";' in dot


def matrices(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(matrices(6))
def test_charpoly_and_adjugate(mat):
    """det(xI - M) as sympy computes it, and (tI - M) adj(tI - M) = p(t) I
    at n + 1 integers t, which fixes the adjugate's n coefficients."""
    import sympy

    n = len(mat)
    x = sympy.Symbol("x")
    charpoly, adj = _charpoly(mat)
    assert charpoly == [int(c) for c in reversed(sympy.Matrix(mat).charpoly(x).all_coeffs())]
    for t in range(n + 1):
        a = [[sum(b[i][j] * t ** (n - 1 - k) for k, b in enumerate(adj))
              for j in range(n)] for i in range(n)]
        p_t = sum(c * t**i for i, c in enumerate(charpoly))
        for i in range(n):
            for j in range(n):
                assert sum(((t if i == k else 0) - mat[i][k]) * a[k][j]
                           for k in range(n)) == (p_t if i == j else 0)


def _outcome(f, *args):
    try:
        return f(*args)
    except TrainTrackError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(matrices(4))
def test_pf_field_and_eigenvector_match_sympy(mat):
    """The minimal polynomial, an interval isolating the same root, and the
    eigenvector's (num, den) entries, or the same refusal, as sympy's path;
    on all nonnegative matrices, primitive or not."""
    charpoly, adj = _charpoly(mat)
    field = _pf_field(charpoly, max(map(sum, mat)))
    ref = sympy_pf_field(mat)
    assert field.minpoly == ref.minpoly
    lo, hi = max(field._lo0, ref._lo0), min(field._hi0, ref._hi0)
    assert lo < hi and count_roots(field.minpoly, lo, hi) == 1
    vec = _outcome(_pf_eigenvector, adj, field)
    ref_vec = _outcome(sympy_pf_eigenvector, mat, ref)
    if isinstance(vec, str) or isinstance(ref_vec, str):
        assert vec == ref_vec
        assert _primitivity_exponent(mat) is None
    else:
        assert [(v.num, v.den) for v in vec] == [(v.num, v.den) for v in ref_vec]


def test_pf_field_chains_each_polynomial_once(trib, fib, monkeypatch):
    """One Sturm chain of the squarefree characteristic polynomial serves
    its integer roots and the bisection for lambda; the field's own root
    count makes the only other one, from degree 3."""
    from ripslab import scalar, traintrack

    chain, calls = scalar.sturm_chain, []

    def counting(p):
        calls.append(p)
        return chain(p)

    for module in (scalar, traintrack):
        monkeypatch.setattr(module, "sturm_chain", counting)
    for m, expected in ((trib, 2), (fib, 1)):
        calls.clear()
        transition(m)
        assert len(calls) == expected
