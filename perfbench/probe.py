"""Set up one workload in a fresh interpreter, then print ``ready``.

    python3 perfbench/probe.py <workload> <seed>

Set-up is what a user pays before the first op: starting Python, importing
``ripslab.cli`` (through the workload module), making the inputs and
parsing them.  ``run.py`` times this process from its start to the
``ready`` line and reports the median of several probes as ``setup_s``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> None:
    work = workloads.WORKLOADS[sys.argv[1]]
    work.parse(work.texts(int(sys.argv[2])))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
