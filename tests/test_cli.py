import importlib.resources as resources
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from ripslab import rips
from ripslab.cli import main
from ripslab.fileformat import parse_system
from ripslab.forest import Subforest
from ripslab.isometry import ValidationError
from ripslab.traintrack import parse_map, rotationless_power, \
    stable_whitehead_graph

from cli_transcript import TRANSCRIPT, transcript
from oracles import brute_stable_whitehead


def corpus(name):
    return str(resources.files("ripslab") / "corpus" / name)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_validate_ok():
    code, text = run_cli("validate", corpus("e_surf.bands"))
    assert code == 0
    assert "valid: yes" in text and "bands: 2" in text


def test_validate_bad_marker():
    code, _ = run_cli("validate", corpus("bad_marker.bands"))
    assert code == 2


def test_validate_malformed_is_input_error(tmp_path):
    tree = "tree\nvertex u\nvertex v\nedge e0 u v {}\n"
    path = tmp_path / "bad.bands"
    for text in ("field L^ in (0, 1)\n" + tree.format(1),
                 "field L^2 - 2 in (a, 1)\n" + tree.format(1),
                 "field L^2 - 2 in (0, 1)\n" + tree.format(1),
                 tree.format("1/0")):
        path.write_text(text)
        assert run_cli("validate", str(path))[0] == 2, text


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe after one line ends the run with
    141 (128 + SIGPIPE) and nothing on stderr."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a settable pipe size")
    import ripslab
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_fd, write_fd = os.pipe()
    # a one-page pipe, so that the 9 kB report cannot fit in it
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ripslab.cli", "words", "--depth", "6",
         corpus("bk_itm.bands")],
        env=env, stdout=write_fd, stderr=subprocess.PIPE)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb", buffering=0) as reader:
        assert reader.readline()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


def test_missing_file_is_input_error():
    code, _ = run_cli("rips", "run", "--max-iter", "5", "nonexistent.bands")
    assert code == 2


def test_usage_error():
    assert main(["bogus"], out=io.StringIO()) == 1
    assert main(["corpus", "show"], out=io.StringIO()) == 1
    assert main(["tt", "swg", corpus("tribonacci.map"), "--budget", "0"],
                out=io.StringIO()) == 1
    bands = corpus("e_trim.bands")
    for argv in (["rips", "run", bands, "--max-iter", "0"],
                 ["rips", "classify", bands, "--diam-ratio", "abc"],
                 ["rips", "classify", bands, "--diam-ratio", "2"],
                 ["words", bands, "--depth", "0"],
                 ["limitset", bands, "--depth", "0"],
                 ["wh", "scan", bands, "--depth", "0"],
                 ["pattern", bands, "--depth", "0"],
                 ["k33", bands, "--depth", "0"]):
        assert main(argv, out=io.StringIO()) == 1, argv


def test_classify_e_surf():
    code, text = run_cli("rips", "classify", "--max-iter", "30",
                         "--diam-ratio", "1/2", corpus("e_surf.bands"))
    assert code == 0
    assert "verdict: SurfaceType" in text and "halt-step: 0" in text


def test_run_e_trim_volumes():
    code, text = run_cli("rips", "run", "--max-iter", "10",
                         corpus("e_trim.bands"))
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "step 0: volume 1 vol_ge3 0 diameter 1/2 bands 2"
    assert lines[1].startswith("step 1: volume 3/5")
    assert lines[2].startswith("step 2: volume 2/5")
    assert lines[3].startswith("step 3: volume 1/5")
    assert "halted: True" in text


def test_rips_step_serializes():
    code, text = run_cli("rips", "step", corpus("e_trim.bands"))
    assert code == 0
    assert "band a.0_1" in text and "interval e0 0 3/10" in text


def test_checkpoint_and_resume(tmp_path):
    ck = str(tmp_path / "ck")
    code, _ = run_cli("rips", "run", "--max-iter", "2",
                      "--checkpoint", ck, corpus("e_trim.bands"))
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == \
        ["step-0.bands", "step-1.bands", "step-2.bands"]
    code, text = run_cli("rips", "run", "--max-iter", "2", "--checkpoint",
                         ck, "--resume", corpus("e_trim.bands"))
    assert code == 0
    assert "resumed: step 2" in text
    assert "step 4:" in text
    assert (tmp_path / "ck" / "step-4.bands").exists()


def test_resume_reads_only_step_files_that_run_writes(tmp_path):
    """A stray step-007.bands or step-\u0663.bands (an Arabic-Indic 3) beside
    a 2-step checkpoint names no step: the run resumes at step 2."""
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2", "--checkpoint", str(ck),
                   corpus("e_trim.bands"))[0] == 0
    for stray in ("step-007.bands", "step-\u0663.bands"):
        (ck / stray).write_text("not a step\n")
    assert rips.latest_checkpoint(str(ck))[0] == 2
    code, text = run_cli("rips", "run", "--max-iter", "2", "--checkpoint", str(ck),
                         "--resume", corpus("e_trim.bands"))
    assert code == 0 and text.startswith("resumed: step 2\n")
    assert "step 4:" in text


# dom(a) = [0, 1/2] touches dom(a') = [1/2, 1] only at e0:1/2, so K' is empty
TOUCH = ("tree\nvertex u\nvertex v\nedge e0 u v 1\n"
         "band a\nmap e0:0 -> e0:1/2\nmap e0:1/2 -> e0:1\n")


def test_empty_support_survives_step_and_resume(tmp_path):
    bands, step = tmp_path / "touch.bands", tmp_path / "step.bands"
    bands.write_text(TOUCH)
    code, text = run_cli("rips", "step", str(bands))
    assert code == 0 and text.endswith("\nsupport\n")
    step.write_text(text)
    code, text = run_cli("validate", str(step))
    assert code == 0 and "volume: 0\n" in text
    ck = str(tmp_path / "ck")
    code, whole = run_cli("rips", "run", "--max-iter", "3",
                          "--checkpoint", ck, str(bands))
    assert code == 0 and whole.endswith("halted: True\nhalt-step: 1\n")
    code, resumed = run_cli("rips", "run", "--max-iter", "3", "--checkpoint",
                            ck, "--resume", str(bands))
    assert code == 0 and resumed.startswith("resumed: step 1\n")
    assert resumed.endswith(whole[whole.index("step 1:"):])


def test_validate_field_interval_holding_several_roots(tmp_path, capsys):
    path = tmp_path / "roots.bands"
    path.write_text("field L^3 - 3*L + 1 in (-2, 2)\n"
                    "tree\nvertex u\nvertex v\nedge e0 u v 1\n")
    code, text = run_cli("validate", str(path))
    assert code == 2 and text == ""
    assert "line 1: bad field: (-2, 2) holds 3 roots" in capsys.readouterr().err


def test_classify_resume_keeps_checkpoints(tmp_path):
    bands = corpus("bk_itm.bands")
    fresh, ck = tmp_path / "fresh", tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "5",
                   "--checkpoint", str(fresh), bands)[0] == 0
    assert run_cli("rips", "run", "--max-iter", "3",
                   "--checkpoint", str(ck), bands)[0] == 0
    before = {p.name: p.read_bytes() for p in ck.iterdir()}
    code, text = run_cli("rips", "classify", "--max-iter", "2", "--resume",
                         "--checkpoint", str(ck), bands)
    assert code == 0 and "resumed: step 3" in text
    after = {p.name: p.read_bytes() for p in ck.iterdir()}
    assert sorted(after) == [f"step-{i}.bands" for i in range(6)]
    for name, data in before.items():
        assert after[name] == data, name
    for name in ("step-4.bands", "step-5.bands"):
        assert after[name] == (fresh / name).read_bytes(), name


def test_classify_resume_judges_whole_trajectory(tmp_path):
    bands = corpus("bk_itm.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "3",
                   "--checkpoint", str(ck), bands)[0] == 0
    resume = ("rips", "classify", "--max-iter", "2", "--resume",
              "--checkpoint", str(ck), bands)
    code, text = run_cli(*resume)
    assert code == 0 and text.startswith("resumed: step 3\n")
    whole = run_cli("rips", "classify", "--max-iter", "5", bands)[1]
    assert text.removeprefix("resumed: step 3\n") == whole
    # the earlier steps are read back, so a missing one is an input error
    (ck / "step-1.bands").unlink()
    assert run_cli(*resume)[0] == 2


def test_resume_from_corrupt_checkpoint_is_input_error(tmp_path):
    bands = corpus("e_trim.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2",
                   "--checkpoint", str(ck), bands)[0] == 0
    (ck / "step-5.bands").write_text("garbage\n")
    for action in ("run", "classify"):
        assert run_cli("rips", action, "--resume",
                       "--checkpoint", str(ck), bands)[0] == 2, action


def test_resume_from_invalid_earlier_checkpoint_names_file(tmp_path, capsys):
    bands = corpus("e_trim.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2",
                   "--checkpoint", str(ck), bands)[0] == 0
    shutil.copy(corpus("bad_marker.bands"), ck / "step-1.bands")
    capsys.readouterr()
    code, text = run_cli("rips", "classify", "--resume",
                         "--checkpoint", str(ck), bands)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert str(ck / "step-1.bands") in err and "distance violation" in err


def test_validation_error_later_in_resumed_run_is_internal(tmp_path,
                                                           monkeypatch):
    bands = corpus("e_trim.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2",
                   "--checkpoint", str(ck), bands)[0] == 0

    def broken(system):
        raise ValidationError(["invariant broken"])

    monkeypatch.setattr(rips, "rips_step", broken)
    assert run_cli("rips", "classify", "--resume",
                   "--checkpoint", str(ck), bands)[0] == 3


def test_validate_reducible_field_is_input_error(tmp_path):
    path = tmp_path / "reducible.bands"
    path.write_text("field L^2 - 1/4 in (0, 1)\ntree\nvertex u\nvertex v\n"
                    "edge e0 u v 1\nband a\nmap e0:0 -> e0:L\n")
    assert run_cli("validate", str(path))[0] == 2


TREE = "tree\nvertex u\nvertex v\nedge e0 u v 1\n"
BAND = "band a\nmap e0:0 -> e0:1/2\n"


@pytest.mark.parametrize("text", [
    TREE + BAND + "band a\nmap e0:0 -> e0:1/4\n",
    TREE + "support\ninterval e0 0 2\n" + BAND,
    TREE + "support\ninterval e0 0 1\ninterval e0 1/2 1/2\n" + BAND,
    "tree\nvertex u v\nvertex v\nedge e0 u v 1\n" + BAND,
    "tree\nvertex u:1\nvertex v\nedge e0 u:1 v 1\n" + BAND,
    TREE + "vertex w\nedge e:0 v w 1\n" + BAND,
], ids=["repeated-band", "interval-past-edge", "empty-interval",
        "vertex-with-space", "vertex-with-colon", "edge-with-colon"])
def test_parsed_input_errors_exit_2(tmp_path, capsys, text):
    """A repeated band label, an interval that is empty or leaves its edge,
    and a vertex name or edge id that the text of a point could not name
    are rejected at their line, not left to fail later."""
    path = tmp_path / "bad.bands"
    path.write_text(text)
    for argv in (("validate",), ("rips", "classify")):
        assert run_cli(*argv, str(path))[0] == 2, argv
        assert ": line " in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (TREE + "support\ninterval e0 0 1/2\nband a\nmap e0:0 -> e0:1/2\n"
     "map e0:1/4 -> e0:3/4\n", "band a: range leaves the support"),
    (TREE + "band a\nmap e0: -> e0:1/2\n", "line 6: empty scalar expression"),
    ("tree\nvertex u\nvertex v\nedge e0 u v (1\n" + BAND,
     "line 4: unbalanced parenthesis"),
    (BAND, "missing tree section"),
    (TREE + "support\ninterval e0 0\n" + BAND,
     "line 6: expected: interval <edge> <lo> <hi>"),
    (TREE + "support\ninterval e9 0 1\n" + BAND, "line 6: unknown edge 'e9'"),
    (TREE + "support\nsegment e0 0 1\n" + BAND,
     "line 6: unexpected 'segment' in support section"),
    (TREE + "band a\n", "line 5: band a has no map lines"),
    ("field 2*L^2 - 1 in (0, 1)\n" + TREE + BAND,
     "line 1: bad field: defining polynomial must be monic"),
    ("field 2 in (0, 1)\n" + TREE + BAND,
     "line 1: bad field: defining polynomial must be nonconstant"),
    ("tree\nvertex u\nvertex u\nedge e0 u v 1\n" + BAND, "duplicate vertex id"),
    ("tree\nvertex u\nvertex v\nedge e0 u u 1\n" + BAND, "edge e0 is a loop"),
    (TREE + "edge e1 v u 1\n" + BAND, "forest contains a cycle"),
    ("tree\nvertex u\nvertex v\nedge e0 u v 0\n" + BAND,
     "edge e0 must have positive length"),
    ("tree\nvertex u\nvertex v\nedge u u v 1\n" + BAND,
     "edge id collides with vertex id"),
], ids=["range-leaves-support", "empty-scalar", "unbalanced-parenthesis",
        "missing-tree", "interval-fields", "support-unknown-edge",
        "support-segment", "no-map-lines", "field-not-monic", "field-constant",
        "duplicate-vertex", "loop", "cycle", "zero-length", "edge-is-vertex"])
def test_validate_input_mistakes_exit_2(tmp_path, capsys, text, message):
    """Each mistake in a .bands file is an input error, reported on one
    stderr line naming the file."""
    path = tmp_path / "bad.bands"
    path.write_text(text)
    assert run_cli("validate", str(path)) == (2, "")
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"


def test_resume_from_checkpoint_repeating_a_label_is_input_error(tmp_path):
    bands = corpus("e_trim.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2",
                   "--checkpoint", str(ck), bands)[0] == 0
    latest = ck / "step-2.bands"
    text = latest.read_text()
    band = text[text.index("band "):]
    latest.write_text(text + band[:band.index("\n", band.index("map"))] + "\n")
    for action in ("run", "classify"):
        assert run_cli("rips", action, "--resume",
                       "--checkpoint", str(ck), bands)[0] == 2, action


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_checkpoint_path_through_a_file_is_input_error(tmp_path, capsys, below):
    """A --checkpoint that is, or lies below, a regular file is an input
    error naming that path."""
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    ck = blocker / "sub" if below else blocker
    code, text = run_cli("rips", "run", "--max-iter", "2", "--checkpoint",
                         str(ck), corpus("e_trim.bands"))
    assert code == 2 and text == ""
    assert f"checkpoint {ck}: " in capsys.readouterr().err


@pytest.mark.parametrize("step", [1, 2], ids=["earlier", "latest"])
def test_resume_from_undecodable_checkpoint_is_input_error(tmp_path, capsys,
                                                           step):
    bands = corpus("e_trim.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2",
                   "--checkpoint", str(ck), bands)[0] == 0
    (ck / f"step-{step}.bands").write_bytes(b"\xff\xfe")
    capsys.readouterr()
    # a failed resume prints no partial report
    assert run_cli("rips", "classify", "--resume",
                   "--checkpoint", str(ck), bands) == (2, "")
    assert str(ck / f"step-{step}.bands") in capsys.readouterr().err


def test_resume_from_an_empty_checkpoint_starts_at_step_0(tmp_path):
    """A checkpoint directory with no step file holds nothing to resume:
    the run starts at step 0 and prints no resumed line."""
    ck = tmp_path / "ck"
    ck.mkdir()
    bands = corpus("e_trim.bands")
    assert rips.latest_checkpoint(str(ck)) is None
    code, text = run_cli("rips", "run", "--max-iter", "2", "--checkpoint", str(ck),
                         "--resume", bands)
    assert (code, text) == (0, run_cli("rips", "run", "--max-iter", "2", bands)[1])
    assert text.startswith("step 0:")
    assert sorted(p.name for p in ck.iterdir()) == [f"step-{i}.bands" for i in range(3)]


def test_classify_without_diameter_drop_is_inconclusive():
    code, text = run_cli("rips", "classify", "--max-iter", "1", corpus("bk_itm.bands"))
    assert code == 0
    assert text == ("verdict: Inconclusive\nreason: no halt, and final max domain"
                    " diameter did not drop below 1/2 of the initial\n")


def test_resume_requires_checkpoint():
    code, _ = run_cli("rips", "run", "--resume", corpus("e_trim.bands"))
    assert code == 1


def test_strata_report():
    code, text = run_cli("strata", corpus("e_surf.bands"))
    assert code == 0
    assert "K>=1: vol 3" in text and "K>=3: vol 0" in text


def test_subforest_points_in_exact_order():
    host = parse_system(corpus("e_trim.bands")).forest
    s = Subforest(host, {}, frozenset([host.point("e0", Fraction(1, 2)),
                                       host.point("e0", Fraction(3, 10))]))
    assert str(s) == "point e0:3/10 point e0:1/2"


def test_words_report():
    code, text = run_cli("words", corpus("e_surf.bands"), "--depth", "1")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a\t")


def test_limitset_report():
    code, text = run_cli("limitset", corpus("e_surf.bands"), "--depth", "1")
    assert code == 0
    assert "volume: 3" in text


def test_wh_scan_report():
    code, text = run_cli("wh", "scan", corpus("bk_itm.bands"),
                         "--depth", "1")
    assert code == 0
    assert text.splitlines()[0].endswith("\t3")


def test_wh_at_report():
    code, text = run_cli("wh", "at", corpus("e_surf.bands"), "--depth", "2",
                         "--point", "e0:3/2", "--direction", "e0:+")
    assert code == 0
    assert "1 edge(s)" in text and "graph directional_whitehead" in text


def test_wh_at_reads_back_every_scan_row(tmp_path):
    """Each point and direction that `wh scan` prints is accepted by
    `wh at`, also on an edge whose id is more than letters and digits."""
    path = tmp_path / "dotted_edge.bands"
    path.write_text("tree\nvertex u\nvertex v\nedge e.0 u v 1\n"
                    "band a\nmap e.0:0 -> e.0:1/2\nmap e.0:1/2 -> e.0:1\n")
    code, text = run_cli("wh", "scan", str(path), "--depth", "1")
    assert code == 0 and "e.0:1/2\te.0:+" in text
    for row in text.splitlines():
        point, direction, _ = row.split("\t")
        assert run_cli("wh", "at", str(path), "--depth", "1", "--point", point,
                       "--direction", direction)[0] == 0, row


def test_wh_at_requires_point():
    code, _ = run_cli("wh", "at", corpus("e_surf.bands"))
    assert code == 1


def test_wh_at_bad_point():
    code, _ = run_cli("wh", "at", corpus("e_surf.bands"),
                      "--point", "e9:0", "--direction", "e0:+")
    assert code == 2
    code, _ = run_cli("wh", "at", corpus("e_surf.bands"),
                      "--point", "e0:5", "--direction", "e0:+")
    assert code == 2


@pytest.mark.parametrize("point, direction, message", [
    ("e0:3/2", "e0", "bad direction 'e0'; expected edge:+ or edge:-"),
    ("e0:1", "e1:+", "e1:+ is not a direction at P(e0:1)"),
], ids=["malformed", "not-at-point"])
def test_wh_at_bad_direction(capsys, point, direction, message):
    assert run_cli("wh", "at", corpus("e_surf.bands"), "--point", point,
                   "--direction", direction) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_pattern_reports():
    code, text = run_cli("pattern", corpus("e_surf.bands"), "--depth", "3")
    assert code == 0 and "not found (depth 3)" in text
    code, text = run_cli("pattern", corpus("bk_itm.bands"), "--depth", "2")
    assert code == 0
    assert "pattern: found" in text and "end-classes: 3" in text


def test_k33_dot():
    code, text = run_cli("k33", corpus("bk_itm.bands"), "--depth", "2")
    assert code == 0
    assert text.count(" -- ") == 9
    for v in ("alpha", "beta", "gamma", "pi1", "pi2", "pi3"):
        assert f'"{v}"' in text


def test_tt_pf_report():
    code, text = run_cli("tt", "pf", corpus("tribonacci.map"))
    assert code == 0
    assert "lambda ~= 1.839287" in text
    assert "minpoly: -1 - 1*x^1 - 1*x^2 + 1*x^3" in text
    assert "eigenvector: (L^2, L, 1)" in text


def test_tt_matrix_report():
    code, text = run_cli("tt", "matrix", corpus("tribonacci.map"))
    assert code == 0
    assert text == "1 1 1\n1 0 0\n0 1 0\n"


def test_tt_check_and_rotationless():
    code, text = run_cli("tt", "check", corpus("tribonacci.map"))
    assert code == 0 and "train-track: yes" in text
    code, text = run_cli("tt", "rotationless", corpus("tribonacci.map"))
    assert code == 0
    assert "rotationless: no" in text and "power: 3" in text


def test_tt_swg_matches_oracle():
    code, text = run_cli("tt", "swg", corpus("tribonacci.map"),
                         "--budget", "6")
    assert code == 0
    trib = parse_map("a->ab; b->ac; c->a")
    _, m3 = rotationless_power(trib)
    _, edges = brute_stable_whitehead(m3.images, 6)
    for u, v in edges:
        assert f"edge: {u} {v}" in text


def test_tt_check_warns_of_a_reduced_image(tmp_path):
    path = tmp_path / "unreduced.map"
    path.write_text("map a -> abcC; b -> ac; c -> a\n")
    code, text = run_cli("tt", "check", str(path))
    assert code == 0
    assert text == "warning: map image of a reduced: abcC -> ab\ntrain-track: yes\n"


def test_tt_pf_integer_eigenvalue(tmp_path):
    # charpoly (x - 2)(x^2 + x + 1): sympy isolates the root 2 exactly
    path = tmp_path / "int.map"
    path.write_text("map a -> ab; b -> acc; c -> a\n")
    code, text = run_cli("tt", "pf", str(path))
    assert code == 0
    assert "minpoly: -2 + 1*x^1" in text
    assert "lambda ~= 2.000000" in text
    assert "eigenvector: (2, 1, 1)" in text


VANISH = ("map a -> b; b -> ac; c -> B", "f^2(b) reduces to the identity")  # f^2(b) = bB
# Df has period 2, but cancellation in f^2 gives its directions period 3
CANCEL = ("map a -> CB; b -> A; c -> aB", "f^2 is not rotationless")


@pytest.mark.parametrize("action, text, message", [
    ("rotationless", *VANISH), ("swg", *VANISH),
    ("rotationless", *CANCEL), ("swg", *CANCEL),
], ids=["rotationless", "swg", "rotationless-cancelling", "swg-cancelling"])
def test_tt_iterate_to_identity_is_input_error(tmp_path, capsys, action, text, message):
    path = tmp_path / "vanish.map"
    path.write_text(text + "\n")
    assert run_cli("tt", action, str(path))[0] == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("action", ["check", "matrix", "pf", "rotationless", "swg"])
def test_tt_wrong_inverse_section_is_input_error(tmp_path, capsys, action):
    """An inverse section that does not invert the map is rejected before
    any action runs, naming the first generator that a composition moves."""
    path = tmp_path / "wrong_inverse.map"
    path.write_text("map a -> ab; b -> ac; c -> a\ninverse a -> b; b -> c; c -> a\n")
    code, text = run_cli("tt", action, str(path))
    assert code == 2 and text == ""
    assert "does not invert the map at a: f(f^-1(a)) = f(b) = ac" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("validate",), ("tt", "pf")],
                         ids=["bands", "map"])
def test_unreadable_input_is_input_error(tmp_path, capsys, argv):
    """A directory, or a file that is not UTF-8, is an input error naming
    the path."""
    undecodable = tmp_path / "utf16.txt"
    undecodable.write_bytes(b"\xff\xfe" + "tree\n".encode("utf-16-le"))
    for path in (tmp_path, undecodable):
        assert run_cli(*argv, str(path)) == (2, ""), path
        assert f"{path}: " in capsys.readouterr().err


def test_bands_mutants_exit_0_1_or_2(tmp_path):
    """Exit-code contract: a corpus system with 1-3 characters deleted,
    inserted or replaced ends in 0, 1 or 2 under every report."""
    rng = random.Random(18)
    chars = "uvab0123L^*+-/:>() \n#"
    sources = [(resources.files("ripslab") / "corpus" / name).read_text()
               for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands")]
    path = tmp_path / "mutant.bands"
    bad = []
    for _ in range(100):
        text = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.choice(["delete", "insert", "replace"])
            if op != "insert" and i < len(text):
                del text[i]
            if op != "delete":
                text.insert(i, rng.choice(chars))
        path.write_text("".join(text))
        for argv in (("validate",), ("rips", "classify", "--max-iter", "3"),
                     ("wh", "scan", "--depth", "2"), ("pattern", "--depth", "2")):
            code, _ = run_cli(*argv, str(path))
            if code not in (0, 1, 2):
                bad.append((argv, "".join(text)))
    assert not bad


def test_tt_mutated_maps_exit_0_1_or_2(tmp_path):
    """Exit-code contract: every tt action on a corpus map with 1-3
    characters deleted, inserted or replaced ends in 0, 1 or 2."""
    rng = random.Random(15)
    chars = "abcdABC->;:# \n1inverse"
    sources = [(resources.files("ripslab") / "corpus" / name).read_text()
               for name in ("fibonacci.map", "tribonacci.map")]
    path = tmp_path / "mutant.map"
    bad = []
    for _ in range(100):
        text = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.choice(["delete", "insert", "replace"])
            if op != "insert" and i < len(text):
                del text[i]
            if op != "delete":
                text.insert(i, rng.choice(chars))
        path.write_text("".join(text))
        for action in ("check", "matrix", "pf", "rotationless", "swg"):
            code, _ = run_cli("tt", action, str(path), "--budget", "3")
            if code not in (0, 1, 2):
                bad.append((action, "".join(text)))
    assert not bad


def test_cli_import_does_not_load_sympy():
    import ripslab
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, ripslab.cli; print('sympy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_tt_on_the_corpus_maps_does_not_load_sympy():
    """`tt pf` and `transition` build fields of degree <= 3 in-house; the
    quartic map still takes the sympy factorization."""
    import ripslab
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import io, sys\n"
             "from ripslab import cli, traintrack\n"
             "def pf(path):\n"
             "    assert cli.main(['tt', 'pf', path], out=io.StringIO()) == 0\n"
             "    traintrack.transition(traintrack.load_map(path))\n"
             "    print('sympy' in sys.modules)\n"
             "for path in sys.argv[1:]:\n"
             "    pf(path)\n")
    data = os.path.join(os.path.dirname(__file__), "data")
    paths = [corpus("tribonacci.map"), corpus("fibonacci.map"),
             os.path.join(data, "mixed_root.map"), os.path.join(data, "repeated_root.map"),
             os.path.join(data, "quartic.map")]
    done = subprocess.run([sys.executable, "-c", probe, *paths], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False", "False", "True"]


def test_cli_transcript():
    """The reports pinned in tests/data/cli_transcript.txt; see
    tests/cli_transcript.py for when that file may be regenerated."""
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        assert transcript() == fh.read()


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_cli_transcript_under_hash_seeds(seed):
    """A few transcript commands, run in a fresh interpreter with a fixed
    PYTHONHASHSEED, print their pinned blocks: no report depends on the
    order of a set or dict of strings."""
    import ripslab
    argvs = [("tt", "pf", "corpus/tribonacci.map"), ("tt", "pf", "data/mixed_root.map"),
             ("wh", "scan", "--depth", "3", "corpus/bk_itm.bands"),
             ("rips", "classify", "--max-iter", "12", "corpus/e_trim.bands"),
             ("pattern", "--depth", "3", "corpus/bk_itm.bands"),
             ("pattern", "--depth", "3", "corpus/e_surf.bands")]
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        blocks = {b.split("\n", 1)[0]: b for b in re.split(r"(?m)^(?=\$ ripslab )", fh.read())}
    probe = ("import json, sys\n"
             "from cli_transcript import render\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    sys.stdout.write(render(argv))\n")
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))]))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(blocks[f"$ ripslab {' '.join(a)}"] for a in argvs)


def test_corpus_list_and_show():
    code, text = run_cli("corpus", "list")
    assert code == 0
    for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands",
                 "bk_itm.oracle", "tribonacci.map", "fibonacci.map"):
        assert name in text
    code, text = run_cli("corpus", "show", "e_surf.bands")
    assert code == 0 and "band a" in text
    code, _ = run_cli("corpus", "show", "nope.bands")
    assert code == 2


def test_corpus_show_serves_only_listed_names():
    for name in ("../../../../../../etc/passwd", "../cli.py"):
        assert run_cli("corpus", "show", name) == (2, ""), name
    surf = resources.files("ripslab") / "corpus" / "e_surf.bands"
    assert run_cli("corpus", "show", "e_surf.bands") == (0, surf.read_text())


def test_reports_deterministic():
    for argv in (("rips", "run", "--max-iter", "6", corpus("e_trim.bands")),
                 ("wh", "scan", corpus("bk_itm.bands"), "--depth", "1"),
                 ("tt", "pf", corpus("fibonacci.map")),
                 ("strata", corpus("e_trim.bands"))):
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a == b and a[0] == 0


def test_emit_dot_empty_whitehead():
    import importlib.resources as r
    from ripslab.fileformat import parse_system
    from ripslab.whitehead import directional_whitehead
    from fractions import Fraction as F
    s = parse_system(corpus("e_trim.bands"))
    x = s.forest.point("e0", F(11, 20))
    d = s.forest.directions_at(x)[0]
    g = directional_whitehead(s, x, d, 2)
    dot = g.to_dot()
    assert " -- " not in dot and dot.startswith("graph")


def test_emit_dot_swg():
    trib = parse_map("a->ab; b->ac; c->a")
    _, m3 = rotationless_power(trib)
    dot = stable_whitehead_graph(m3, 6).to_dot()
    assert dot.count(" -- ") == 3
