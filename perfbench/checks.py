"""Output checks for one job, and the lines that feed the verdict digest.

A job fails when a command exits with anything but 0 or 1 (solve: 0), when
a report or ledger does not parse, or when the verdicts contradict what the
generator planted:

* certify jobs: the distinct_set partition of the certified points equals
  their partition by planted root, and a point is reported real only if
  its planted root is real;
* solve jobs: every certified candidate has a distinct set of its own, the
  ledger's factor-selection and slice-path counts equal those the
  truncation degrees imply, and the candidate count matches the report.

Reruns of a job must reproduce its report and ledger byte for byte; the
runner compares the fingerprints returned here.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

_STAGE = re.compile(r"^stage (\S+): seed=(-?\d+) ")
_PATH = re.compile(r"^  path (\S+): (\w+) steps=(\d+)$")
_SLICES = re.compile(r"^note: slices: (\d+) factor selections")
_CANDIDATES = re.compile(r"^candidates: (\d+)$")


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    certified: int = 0
    distinct: int = 0
    points: int = 0  # point certifications attempted
    digest_lines: list = field(default_factory=list)
    fingerprint: str = ""
    ledger: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_ledger(text: str) -> dict:
    """Stages (name, seed, [(label, status, steps)]), slice count, candidates."""
    stages, slices, candidates = [], None, None
    for line in text.splitlines():
        m = _STAGE.match(line)
        if m:
            stages.append((m.group(1), int(m.group(2)), []))
            continue
        m = _PATH.match(line)
        if m and stages:
            stages[-1][2].append((m.group(1), m.group(2), int(m.group(3))))
            continue
        m = _SLICES.match(line)
        if m:
            slices = int(m.group(1))
            continue
        m = _CANDIDATES.match(line)
        if m:
            candidates = int(m.group(1))
    return {"stages": stages, "slices": slices, "candidates": candidates}


def _load_report(job, out: Outcome):
    try:
        text = job.report.read_text(encoding="utf-8")
        report = json.loads(text)
        points = report["points"]
        counts = report["counts"]
    except (OSError, ValueError, KeyError) as exc:
        out.problems.append(f"report does not parse: {exc}")
        return None, ""
    out.certified = counts["certified"]
    out.distinct = counts["distinct"]
    for p in points:
        out.digest_lines.append(
            f"{job.name} {p['index']} {p.get('certified')} {p.get('alpha_bound')} "
            f"{p.get('distinct_set')} {p.get('real')} {p.get('error', '')}"
        )
    return report, text


def _check_partition(job, points, out: Outcome):
    sets_of_root, roots_of_set = {}, {}
    for p in points:
        if not p.get("certified"):
            continue
        root = job.roots[p["index"]]
        ds = p.get("distinct_set")
        sets_of_root.setdefault(root, set()).add(ds)
        roots_of_set.setdefault(ds, set()).add(root)
        if p.get("real") == "real" and not job.root_real[root]:
            out.problems.append(f"point {p['index']} reported real, planted root {root} is not")
    if any(len(v) != 1 for v in sets_of_root.values()) or any(
        len(v) != 1 for v in roots_of_set.values()
    ):
        out.problems.append(
            f"distinct sets {sorted(map(sorted, roots_of_set.values()))} "
            f"do not match the planted roots"
        )


def check_certify(job, codes) -> Outcome:
    out = Outcome()
    out.points = job.points
    if codes[0] not in (0, 1):
        out.problems.append(f"certify exited {codes[0]}")
    report, text = _load_report(job, out)
    if report is None:
        return out
    points = report["points"]
    if len(points) != job.points:
        out.problems.append(f"{len(points)} points reported, {job.points} given")
        return out
    if (codes[0] == 0) != (out.certified == len(points)):
        out.problems.append(f"exit code {codes[0]} disagrees with {out.certified} certified")
    _check_partition(job, points, out)
    out.fingerprint = hashlib.sha256(text.encode()).hexdigest()
    return out


def check_solve(job, codes) -> Outcome:
    out = Outcome()
    if codes[0] != 0 or codes[1] not in (0, 1):
        out.problems.append(f"solve/certify exited {codes}")
    report, text = _load_report(job, out)
    try:
        ledger_text = job.ledger.read_text(encoding="utf-8")
    except OSError as exc:
        out.problems.append(f"ledger missing: {exc}")
        return out
    ledger = parse_ledger(ledger_text)
    out.ledger = ledger
    if report is None:
        return out
    out.points = report["counts"]["total"]
    certified_sets = [p.get("distinct_set") for p in report["points"] if p.get("certified")]
    if len(set(certified_sets)) != len(certified_sets):
        out.problems.append(f"certified candidates share distinct sets: {certified_sets}")
    want_slices, want_paths = job.expected_slices
    slice_stage = [s for s in ledger["stages"] if s[0] == "slice-continuation"]
    if ledger["slices"] != want_slices:
        out.problems.append(f"ledger has {ledger['slices']} slices, degrees imply {want_slices}")
    if not slice_stage or len(slice_stage[0][2]) != want_paths:
        got = len(slice_stage[0][2]) if slice_stage else None
        out.problems.append(f"ledger has {got} slice paths, degrees imply {want_paths}")
    if ledger["candidates"] != out.points:
        out.problems.append(
            f"ledger lists {ledger['candidates']} candidates, report {out.points}"
        )
    for name, _seed, outcomes in ledger["stages"]:
        out.digest_lines.extend(f"{job.name} {name} {label} {status}" for label, status, _ in outcomes)
    out.fingerprint = hashlib.sha256((ledger_text + text).encode()).hexdigest()
    return out


def check(job, codes) -> Outcome:
    return check_solve(job, codes) if job.certify_argv else check_certify(job, codes)
