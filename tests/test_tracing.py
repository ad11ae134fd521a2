"""The per-layer trace of perfbench/run.py --trace 1 must stay installable:
it wraps library names by their attribute names, so renaming or removing
one of them breaks tracing without breaking any library test.  It runs
the Rips layer and the lamination layer (`wh_scan`, `limit_set`).  It counts
only the wrapped Scalar methods, so a scalar fast path that bypassed them
would silently zero a counter."""

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
             "rips.valence", "rips.same_system", "isometry.image_of",
             "isometry.restrict"):
    assert bucket[name + ".calls"] > 0, name
# rips_step itself must call the wrapped image_of and restrict (restrict
# calling image_of is not enough), or rips.pair_yield silently reads 0
for name in ("isometry.image_of", "isometry.restrict"):
    assert bucket[name + ".in_step"] > 0, name
# a field system: internal fast paths of the scalar layer must not bypass
# the wrapped methods and silently zero a counter
rec.begin()
result = rips.classify(parse_system(FIELD_BANDS), 3)
rec.end()
bucket = rec.buckets[1]
# rips_step maps once per band through image_of, never once per pair of
# components of K'; every record is stepped but the last of a run that
# did not halt
steps = result.trace.steps
stepped = sum(r.bands for r in (steps if result.trace.halted else steps[:-1]))
assert bucket["isometry.image_of.in_step"] == stepped, (
    bucket["isometry.image_of.in_step"], stepped)
for name in ("scalar.sign", "scalar.compare", "scalar.arith",
             "scalar.enclosure"):
    assert bucket[name + ".calls"] > 0, name
# the lamination layer: wh_scan reads dotted_words through whitehead's
# binding of it and limit_set through lamination's, so each must be wrapped
from ripslab import lamination, whitehead
system = parse_system(FIELD_BANDS)
rec.begin()
whitehead.wh_scan(system, 3)
lamination.limit_set(system, 3)
rec.end()
bucket = rec.buckets[2]
assert bucket["lamination.dotted_words.calls"] == 2, bucket["lamination.dotted_words.calls"]
for name in ("lamination.limit_set", "whitehead.wh_scan"):
    assert bucket[name + ".calls"] == 1, name
print("installed")
"""


def test_tracing_installs_and_records_rips_layers():
    # a subprocess, so that the wrappers do not leak into other tests
    src = os.path.dirname(os.path.dirname(ripslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), src]))
    bands = os.path.join(src, "ripslab", "corpus", "e_trim.bands")
    field_bands = os.path.join(src, "ripslab", "corpus", "bk_itm.bands")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"BANDS = {bands!r}\nFIELD_BANDS = {field_bands!r}\n" + SCRIPT],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
