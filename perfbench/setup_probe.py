"""Time one fresh interpreter's set-up: import expcert, parse input files.

    python3 setup_probe.py <src dir> <file.sys|file.pts> ...

Prints the seconds from before the import to after the last parse, then
the speed loop's seconds (speed.py) timed right after. The interpreter's
own start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import expcert.cli  # noqa: E402,F401  (the import is what is timed)
from expcert.sysio import parse_points, parse_system  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    (parse_system if path.endswith(".sys") else parse_points)(text)
setup_s = time.perf_counter() - t0

import speed  # noqa: E402  (imported after the timed part)

print(setup_s, speed.loop_seconds())
