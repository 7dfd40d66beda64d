"""Iterated centralizers and envelope chains in permutation groups."""

__version__ = "0.1.0"

# Defaults the CLI's options read; here so that parsing them imports no engine.
DEFAULT_CAP = 20000

# Largest chain depth the CLI accepts; every resolved default lies below it.
MAX_KMAX = 64
