import gc
import importlib.resources as resources
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, note, settings, strategies as st

import oracles
from hosts import summary
from ripslab import fileformat
from ripslab.cli import _parse_direction
from ripslab.fileformat import (
    BandsSyntaxError,
    parse_point,
    parse_scalar,
    parse_system,
    parse_system_text,
    save_system,
    scalar_str,
    serialize_system,
)
from ripslab.isometry import ValidationError
from ripslab.scalar import FieldMismatch, NumberField, rational as Q


def corpus(name):
    return str(resources.files("ripslab") / "corpus" / name)


TRIPOD = """
tree
vertex c
vertex t1
vertex t2
edge l1 c t1 1
edge l2 c t2 2
band f
map t1 -> l2:1
map c -> l2:2
"""


def test_parse_scalar_rational():
    assert parse_scalar("3/10", None) == Q(3, 10)
    assert parse_scalar("-1/2 + 2", None) == Q(3, 2)


def test_parse_scalar_polynomial():
    f = NumberField([-1, 1, 1, 1], 0, 1)
    b = f.gen
    assert parse_scalar("1 - L - L^2", f) == 1 - b - b * b
    assert parse_scalar("1/2*L^2", f) == b * b / 2
    assert parse_scalar("L^3", f) == 1 - b - b * b
    power = f.rational(1)
    for k in range(40):
        assert parse_scalar(f"L^{k}", f) == power
        assert parse_scalar(f"(2 - L)*L^{k}", f) == (2 - b) * power
        power = power * b


def test_parse_scalar_without_field_rejects_L():
    with pytest.raises(BandsSyntaxError):
        parse_scalar("L + 1", None)


def test_scalar_str_round_trip():
    f = NumberField([-1, 1, 1, 1], 0, 1)
    for x in (Q(0), Q(-7, 3), f.gen, 1 - f.gen, f.element([1, -2, 3]),
              f.element([0, 0, -1])):
        assert parse_scalar(scalar_str(x), f) == x


# An expression tree is a number (p, q), a power ("L", k), a negation
# ("-", t), a binary node (op, s, t) or parentheses ("()", t).  Its text
# has the parentheses that the grammar needs and those drawn; its values
# are a Fraction and a polynomial in L over Fraction, by the oracles'
# dense arithmetic.

def _expressions(with_gen):
    number = st.tuples(st.integers(0, 50), st.integers(1, 20))
    leaf = st.one_of(number, st.tuples(st.just("L"), st.integers(0, 6))) if with_gen else number
    return st.recursive(leaf, lambda t: st.one_of(
        st.tuples(st.just("-"), t),
        st.tuples(st.sampled_from("+-*"), t, t),
        st.tuples(st.just("()"), t)), max_leaves=10)


def _text(tree, level=1):
    """The text of a tree where the grammar needs a sum (level 1), a
    product (2) or a factor (3); a negation only starts a sum."""
    head = tree[0]
    if head == "()":
        return "(" + _text(tree[1]) + ")"
    if head == "L":
        return "L" if tree[1] == 1 else f"L^{tree[1]}"
    if isinstance(head, int):
        return str(head) if tree[1] == 1 else f"{head}/{tree[1]}"
    if len(tree) == 2:  # negation
        text, own = "-" + _text(tree[1], 2), 1
    elif head == "*":
        text, own = _text(tree[1], 2) + "*" + _text(tree[2], 3), 2
    else:
        text, own = _text(tree[1], 1) + f" {head} " + _text(tree[2], 2), 1
    return text if own >= level else "(" + text + ")"


def _fraction(tree):
    head = tree[0]
    if head == "()":
        return _fraction(tree[1])
    if isinstance(head, int):
        return Fraction(head, tree[1])
    if len(tree) == 2:
        return -_fraction(tree[1])
    a, b = _fraction(tree[1]), _fraction(tree[2])
    return a + b if head == "+" else a - b if head == "-" else a * b


def _reference(tree):
    head = tree[0]
    if head == "()":
        return _reference(tree[1])
    if head == "L":
        return oracles._poly([0] * tree[1] + [1])
    if isinstance(head, int):
        return oracles._poly([Fraction(head, tree[1])])
    if len(tree) == 2:
        return oracles._pneg(_reference(tree[1]))
    op = {"+": oracles._padd, "-": oracles._psub, "*": oracles._pmul}[head]
    return op(_reference(tree[1]), _reference(tree[2]))


BK_ITM = NumberField([-1, 1, 1, 1], 0, 1)


@settings(max_examples=200, deadline=None)
@given(_expressions(with_gen=True))
def test_parse_scalar_matches_dense_polynomials_in_the_bk_itm_field(tree):
    """In the bk_itm field a parsed expression is its value in Q[L]
    reduced modulo the minimal polynomial; read on a field line, before
    the field exists, it is that value in Q[L] unreduced."""
    text = _text(tree)
    note(text)
    value = _reference(tree)
    x = parse_scalar(text, BK_ITM)
    assert x.field is BK_ITM
    assert x.coeffs == oracles._pdivmod(value, BK_ITM.minpoly)[1]
    assert fileformat._evaluate(text, 0, None, gen=True).coeffs == value


@settings(max_examples=200, deadline=None)
@given(_expressions(with_gen=False))
def test_parse_scalar_matches_fractions_with_no_field(tree):
    text = _text(tree)
    note(text)
    x = parse_scalar(text, None)
    assert x.field is None
    assert x == Q(_fraction(tree))


def test_field_line_reads_its_polynomial_in_any_form():
    """bk_itm's minimal polynomial written as a product defines the
    corpus field."""
    text = "field (L + 1)*(L^2 + 1) - 2 in (0, 1)\n" + LINE
    assert parse_system_text(text).field == parse_system(corpus("bk_itm.bands")).field


@st.composite
def corpus_points(draw):
    """A corpus system over Q or Q(L) and a point of its host: a vertex,
    or an edge point at a drawn exact offset."""
    system = parse_system(corpus(draw(st.sampled_from(
        ["e_surf.bands", "e_trim.bands", "bk_itm.bands"]))))
    host = system.forest
    if draw(st.booleans()):
        return system, host.vertex_point(draw(st.sampled_from(host.vertices)))
    edge = draw(st.sampled_from(host.edges))
    third = st.fractions(0, edge.length.as_fraction() / 3, max_denominator=12)
    if system.field is None:
        x = Q(draw(third) * 3)
    else:
        x = system.field.element([draw(third), draw(third), draw(third)])
    return system, host.point(edge.id, draw(st.sampled_from([x, edge.length - x])))


@settings(max_examples=100, deadline=None)
@given(corpus_points())
def test_point_and_direction_text_round_trip(case):
    system, p = case
    assert parse_point(system.forest, system.field, str(p)) == p
    assert repr(p) == f"P({p})"
    for d in system.forest.directions_at(p):
        assert _parse_direction(p, str(d)) == d


def test_parse_corpus_e_surf():
    s = parse_system(corpus("e_surf.bands"))
    assert len(s.bands) == 2
    assert s.support.volume() == Q(3)
    a = s.band("a")
    assert a.domain == s.forest.segment(s.forest.point("e0", 0),
                                        s.forest.point("e0", 2))


def test_parse_corpus_bk_itm():
    s = parse_system(corpus("bk_itm.bands"))
    assert s.field is not None
    b = s.field.gen
    assert s.band("c").domain.volume() == b * b * b
    assert not s.validate()


def test_parse_leaves_no_garbage_for_the_cycle_collector():
    """A parse makes no reference cycle: with the collector off, reference
    counting alone frees every object of a parsed and dropped system."""
    with open(corpus("bk_itm.bands"), encoding="utf-8") as fh:
        text = fh.read()
    parse_system_text(text)
    gc.collect()
    gc.disable()
    try:
        parse_system_text(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_tree_with_branch():
    s = parse_system_text(TRIPOD)
    assert s.band("f").domain.volume() == Q(1)
    assert not s.validate()


def test_round_trip_preserves_summaries():
    for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands"):
        s = parse_system(corpus(name))
        t = parse_system_text(serialize_system(s))
        assert summary(t) == summary(s)
        assert {b.name for b in t.bands} == {b.name for b in s.bands}


def test_serialization_deterministic():
    s1 = parse_system(corpus("e_trim.bands"))
    s2 = parse_system(corpus("e_trim.bands"))
    assert serialize_system(s1) == serialize_system(s2)
    assert serialize_system(parse_system_text(serialize_system(s1))) == \
        serialize_system(s1)


def test_bad_marker_rejected():
    with pytest.raises(ValidationError) as exc:
        parse_system(corpus("bad_marker.bands"))
    assert any("a" in v for v in exc.value.violations)


def test_bad_fields_rejected():
    with pytest.raises(FieldMismatch):
        parse_system(corpus("bad_fields.bands"))


def test_bad_syntax_rejected():
    with pytest.raises(BandsSyntaxError) as exc:
        parse_system(corpus("bad_syntax.bands"))
    assert exc.value.line == 7


def test_unknown_edge_rejected():
    with pytest.raises(BandsSyntaxError):
        parse_system_text("tree\nvertex u\nvertex v\nedge e0 u v 1\n"
                          "band a\nmap e9:0 -> e0:1\n")


def test_save_system(tmp_path):
    s = parse_system(corpus("e_surf.bands"))
    out = tmp_path / "copy.bands"
    save_system(s, str(out))
    assert summary(parse_system(str(out))) == summary(s)


def test_save_system_keeps_old_file_when_interrupted(tmp_path, monkeypatch):
    s = parse_system(corpus("e_surf.bands"))
    out = tmp_path / "step-1.bands"
    save_system(s, str(out))
    before = out.read_bytes()

    def interrupted(system):
        raise KeyboardInterrupt

    monkeypatch.setattr(fileformat, "serialize_system", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_system(s, str(out))
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["step-1.bands"]


LINE = "tree\nvertex u\nvertex v\nedge e0 u v 1\n"


@pytest.mark.parametrize("field", [
    "L^2 - 1/4 in (0, 1)",                # (L - 1/2)(L + 1/2)
    "L^3 + 5*L^2 - 2*L - 10 in (1, 2)",   # (L + 5)(L^2 - 2), root -5 outside
    "L^4 - 5*L^2 + 6 in (1, 3/2)",        # (L^2 - 2)(L^2 - 3), no rational root
])
def test_reducible_field_rejected(field):
    # over a reducible polynomial, equal values can have different reduced
    # forms: with L = 1/2 this band is an isometry, yet failed validation
    text = (f"field {field}\n" + LINE +
            "band a\nmap e0:0 -> e0:1/2\nmap e0:L -> e0:1\n")
    with pytest.raises(BandsSyntaxError, match="reducible") as exc:
        parse_system_text(text)
    assert exc.value.line == 1


def test_field_interval_holding_several_roots_rejected():
    # the interval names no single root, so it defines no lambda
    with pytest.raises(BandsSyntaxError, match="bad field.*3 roots") as exc:
        parse_system_text("field L^3 - 3*L + 1 in (-2, 2)\n" + LINE)
    assert exc.value.line == 1


def test_empty_support_round_trips():
    # a present but empty support section is the empty set, not the forest
    s = parse_system_text(LINE + "support\n")
    assert s.support.is_empty
    assert serialize_system(s) == LINE + "support\n"
    assert parse_system_text(LINE).support == s.forest.whole()


def test_irreducible_fields_accepted():
    for field in ("L - 1/2 in (0, 1)", "L^2 - 2 in (1, 2)",
                  "L^3 - 1/2*L - 1/4 in (0, 1)", "L^4 - 2 in (1, 2)"):
        assert parse_system_text(f"field {field}\n" + LINE).field is not None


def test_parse_field_system_does_not_load_sympy():
    import ripslab
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    probe = ("import sys; from ripslab.fileformat import parse_system; "
             f"parse_system({corpus('bk_itm.bands')!r}); "
             "print('sympy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_validation_message_prints_points_exactly():
    text = ("field L^3 + L^2 + L - 1 in (0, 1)\n" + LINE +
            "band a\nmap e0:0 -> e0:1/2\nmap e0:L -> e0:1\n")
    with pytest.raises(ValidationError) as exc:
        parse_system_text(text)
    assert "distance violation between markers P(u),P(e0:L) " in str(exc.value)
