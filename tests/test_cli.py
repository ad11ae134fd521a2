import importlib.resources as resources
import io
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from ripslab import rips
from ripslab.cli import _subforest_str, main
from ripslab.fileformat import parse_system
from ripslab.forest import Subforest
from ripslab.traintrack import parse_map, rotationless_power, \
    stable_whitehead_graph

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
    code, _ = run_cli("rips", "classify", "--resume",
                      "--checkpoint", str(ck), bands)
    err = capsys.readouterr().err
    assert code == 2
    assert str(ck / "step-1.bands") in err and "distance violation" in err


def test_validation_error_later_in_resumed_run_is_internal(tmp_path,
                                                           monkeypatch):
    bands = corpus("e_trim.bands")
    ck = tmp_path / "ck"
    assert run_cli("rips", "run", "--max-iter", "2",
                   "--checkpoint", str(ck), bands)[0] == 0

    def broken(system):
        raise rips.ValidationError(["invariant broken"])

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
], ids=["repeated-band", "interval-past-edge", "empty-interval"])
def test_parsed_input_errors_exit_2(tmp_path, capsys, text):
    """A repeated band label and an interval that is empty or leaves its
    edge are rejected at their line, not left to fail later."""
    path = tmp_path / "bad.bands"
    path.write_text(text)
    for argv in (("validate",), ("rips", "classify")):
        assert run_cli(*argv, str(path))[0] == 2, argv
        assert ": line " in capsys.readouterr().err


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
    assert _subforest_str(s) == "point e0:3/10 point e0:1/2"


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
