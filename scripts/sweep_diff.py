"""Compare two sweep outputs line by line, ignoring the solve time.

Reads two files of JSON lines, as certify_sweep.py and solve_sweep.py print
them, and prints each pair of lines that differ once the timing key
`solve_s` is dropped, together with lines that one file has and the other
lacks. Exits 0 when the outputs agree and 1 when any line differs.

    python3 scripts/sweep_diff.py before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

IGNORED = ("solve_s",)


def _records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    out = []
    for line in lines:
        record = json.loads(line)
        for key in IGNORED:
            record.pop(key, None)
        out.append(record)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first sweep output")
    parser.add_argument("b", help="second sweep output")
    args = parser.parse_args(argv)
    differ = 0
    pairs = itertools.zip_longest(_records(args.a), _records(args.b))
    for n, (a, b) in enumerate(pairs, 1):
        if a != b:
            differ += 1
            print(f"line {n}:")
            print(f"< {json.dumps(a, sort_keys=True)}")
            print(f"> {json.dumps(b, sort_keys=True)}")
    print(f"{differ} differing line(s)", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
