"""Fresh-interpreter set-up of one workload, timed from outside by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY [--tiny]

Imports ``loschmidt`` from the checkout's ``src``, writes the workload config
for SEED into DIRECTORY and parses it once with ``load_config``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]

    import loschmidt
    import workloads

    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    tiny = "--tiny" in sys.argv[4:]
    wl = workloads.workload(name, tiny)
    loschmidt.load_config(workloads.write_config(wl, seed, directory, tiny))
