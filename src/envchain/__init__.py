"""Iterated centralizers and envelope chains in permutation groups.

Besides the version and the CLI's option defaults, this module holds what
every command shares, so that no engine defines it twice: the check record
(`CheckRecord` and the status words `PASS`, `FAIL` and `SKIPPED`), the one
pass/fail rule `_verdict` every engine writes its records through,
`LimitError`, the one exception for a resource limit (the CLI exits 3 on
it), `_Memo`, and `format_moves`, the one writer of cycle notation, for the
finite permutations of `perm` and the block permutations of `symnat` alike.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

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


def format_moves(moves: Mapping[int, int]) -> str:
    """Canonical cycle notation of the permutation sending each x to
    moves[x] and fixing every other point, `moves` holding the moved points
    only: each cycle starts at its least point, cycles are sorted by that
    point, and the identity is "()".  Costs the number of moved points, not
    the degree; the mirror of `perm.parse_moves`."""
    out, done = [], set()
    for start in sorted(moves):
        if start in done:
            continue
        cycle = [start]
        while (x := moves[cycle[-1]]) != start:
            cycle.append(x)
        done.update(cycle)
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"
