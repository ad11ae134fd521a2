import importlib.resources as resources
import io
import os
import subprocess
import sys

import pytest

from ripslab.cli import emit_dot, main
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


def test_resume_requires_checkpoint():
    code, _ = run_cli("rips", "run", "--resume", corpus("e_trim.bands"))
    assert code == 1


def test_strata_report():
    code, text = run_cli("strata", corpus("e_surf.bands"))
    assert code == 0
    assert "K>=1: vol 3" in text and "K>=3: vol 0" in text


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
    dot = emit_dot(g)
    assert " -- " not in dot and dot.startswith("graph")


def test_emit_dot_swg():
    trib = parse_map("a->ab; b->ac; c->a")
    _, m3 = rotationless_power(trib)
    dot = emit_dot(stable_whitehead_graph(m3, 6))
    assert dot.count(" -- ") == 3


def test_emit_dot_rejects_unknown():
    with pytest.raises(TypeError):
        emit_dot(42)
