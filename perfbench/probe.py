"""Set-up probe: import patchfit and make one minimal call into a workload.

``run.py`` times fresh interpreters running this script to measure set-up:

    python3 perfbench/probe.py <workload> <workdir>
"""

import sys
from pathlib import Path

from pins import pin_threads

if __name__ == "__main__":
    pin_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].minimal(Path(sys.argv[2]))
