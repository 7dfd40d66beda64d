"""Test-local views of the package's data in a second form.

The package keeps one form per layer: the built-in catalog as each group's
degree and generators, and the chain model's levels as int masks.  These
views build the form older tests compare or write: a catalog group as
group-file text, and a model level as a set of canonical BitFns.
"""

from __future__ import annotations

from envchain import symnat as sn
from envchain.catalog import catalog_generators
from envchain.perm import format_cycles


def catalog_file(name: str) -> str:
    """The built-in catalog group `name` as group-file text, one generator
    a line in cycle notation."""
    degree, gens = catalog_generators()[name]
    return "\n".join([f"degree: {degree}", *map(format_cycles, gens)]) + "\n"


def level(model: sn.IterChainModel, i: int) -> frozenset[sn.BitFn]:
    """Level i of the chain model, each member of `model.span(i)` as the
    canonical BitFn repeating its 2^i bits."""
    return frozenset(sn._from_mask(m, 2 ** i) for m in model.span(i))
