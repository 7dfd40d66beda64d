"""Correctness oracle for envchain CLI invocations.

An invocation counts as failed when the process exits nonzero, when its
json-like report has any check with status "fail", or when the digest of the
report differs from the one recorded in `digests.json`.  The digest is the
SHA-256 of the report re-serialized canonically after dropping the
non-deterministic `timings` block (and `stats`, should reports grow one).

Run `python3 perfbench/oracle.py` for the self-test: it feeds a good report,
a tampered report, a report with a failing check and a nonzero exit through
real child processes and checks that exactly the last three count as failed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
STRIPPED_KEYS = ("timings", "stats")


def digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k not in STRIPPED_KEYS}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def judge(returncode: int, stdout: bytes, expected: str | None) -> tuple[str | None, str | None]:
    """(failure reason or None, digest or None) for one finished invocation.

    With `expected` None only the exit code and the checks are judged; that
    is how digests are recorded in the first place.
    """
    if returncode != 0:
        return f"exit code {returncode}", None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not valid json", None
    failing = [c["id"] for c in report.get("checks", ()) if c.get("status") == "fail"]
    got = digest(report)
    if failing:
        return f"{len(failing)} failing checks, first {failing[0]}", got
    if expected is not None and got != expected:
        return f"digest {got[:12]} != recorded {expected[:12]}", got
    return None, got


class SelfTestError(Exception):
    pass


def self_test() -> None:
    """Raise SelfTestError unless each failure kind counts as failed."""
    good = {
        "command": {"name": "verify", "args": {}},
        "checks": [{"id": "c1", "claim": "x", "status": "pass"}],
        "timings": {"total_s": 1.0},
        "witnesses": [],
    }
    expected = digest(good)
    retimed = dict(good, timings={"total_s": 2.0})
    tampered = dict(good, witnesses=[{"type": "levels", "sizes": [2, 4]}])
    failing = dict(good, checks=[{"id": "c1", "claim": "x", "status": "fail"}])
    cases = [
        ("good", 0, retimed, None),
        ("tampered", 0, tampered, "digest"),
        ("fail-check", 0, failing, "failing checks"),
        ("nonzero-exit", 1, good, "exit code 1"),
    ]
    failed = 0
    for name, code, report, want in cases:
        script = f"import sys; sys.stdout.write({json.dumps(json.dumps(report))}); sys.exit({code})"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
        # A failing check must be caught on its own, not only through its digest.
        exp = digest(failing) if name == "fail-check" else expected
        reason, _ = judge(proc.returncode, proc.stdout, exp)
        if (reason is None) != (want is None) or (want is not None and want not in reason):
            raise SelfTestError(f"{name}: judged {reason!r}, want {want!r}")
        failed += reason is not None
    if failed / len(cases) != 0.75:
        raise SelfTestError(f"failed_ratio {failed}/{len(cases)}, want 3/4")


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed: tampered report, failing check and nonzero exit each count as failed")
