"""The per-layer trace of perfbench/run.py --trace 1 must stay installable:
it wraps library names by their attribute names, so renaming or removing
one of them breaks tracing without breaking any library test."""

import os
import subprocess
import sys

import ripslab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import tracing
from ripslab import rips
from ripslab.fileformat import parse_system

rec = tracing.Recorder()
tracing.install(rec)
rec.begin()
rips.classify(parse_system(BANDS), 3)
rec.end()
bucket = rec.buckets[0]
for name in ("rips.run", "rips.rips_step", "rips.overlap_set",
             "rips.valence", "rips.same_system"):
    assert bucket[name + ".calls"] > 0, name
print("installed")
"""


def test_tracing_installs_and_records_rips_layers():
    # a subprocess, so that the wrappers do not leak into other tests
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), src]))
    bands = os.path.join(src, "ripslab", "corpus", "e_trim.bands")
    proc = subprocess.run(
        [sys.executable, "-c", f"BANDS = {bands!r}\n" + SCRIPT],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
