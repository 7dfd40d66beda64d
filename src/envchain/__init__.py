"""Iterated centralizers and envelope chains in permutation groups.

Besides the version and the CLI's option defaults, this module holds what
every command shares, so that no engine defines it twice: the check record
(`CheckRecord` and the status words `PASS`, `FAIL` and `SKIPPED`), the one
pass/fail rule `_verdict` every engine writes its records through,
`LimitError`, the one exception for a resource limit (the CLI exits 3 on
it), and `_Memo`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

__version__ = "0.1.0"

# Defaults the CLI's options read; here so that parsing them imports no engine.
DEFAULT_CAP = 20000

# Largest chain depth the CLI accepts; every resolved default lies below it.
MAX_KMAX = 64

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckRecord(NamedTuple):
    """One check as the (id, claim, status, witness) tuple a report stores."""

    id: str
    claim: str
    status: str
    witness: str | None = None


class LimitError(RuntimeError):
    """A resource limit was exceeded; the CLI exits 3."""


# Here, not in an engine, because every command imports this module.  Every
# memo of the package is one: each group's filters, greedy generators and
# coset labels in `grp`, the oracle's levels in `symnat`, and the series map
# and the records lists of one `verify` run in `suites`.  So every body run
# starts in `__missing__`.
class _Memo(dict):
    """fn(key), computed once per distinct key, on its first read."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _verdict(check_id: str, claim: str, ok: bool, witness: Callable[[], str] | None = None) -> CheckRecord:
    """The pass record of (check_id, claim) when `ok`, else a failure with
    witness(), None when no witness is given.  The witness text is built
    only on failure."""
    return CheckRecord(check_id, claim, PASS) if ok else CheckRecord(check_id, claim, FAIL, witness and witness())
