import importlib.resources as resources

import pytest

from ripslab.fileformat import (
    BandsSyntaxError,
    parse_scalar,
    parse_system,
    parse_system_text,
    save_system,
    scalar_str,
    serialize_system,
)
from ripslab.isometry import ValidationError
from ripslab.scalar import FieldMismatch, field_define, rational as Q


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
    f = field_define([-1, 1, 1, 1], 0, 1)
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
    f = field_define([-1, 1, 1, 1], 0, 1)
    for x in (Q(0), Q(-7, 3), f.gen, 1 - f.gen, f.element([1, -2, 3]),
              f.element([0, 0, -1])):
        assert parse_scalar(scalar_str(x), f) == x


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


def test_parse_tree_with_branch():
    s = parse_system_text(TRIPOD)
    assert s.band("f").domain.volume() == Q(1)
    assert not s.validate()


def test_round_trip_preserves_summaries():
    for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands"):
        s = parse_system(corpus(name))
        t = parse_system_text(serialize_system(s))
        assert t.summary() == s.summary()
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
    assert parse_system(str(out)).summary() == s.summary()
