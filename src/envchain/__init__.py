"""Iterated centralizers and envelope chains in permutation groups."""

__version__ = "0.1.0"

# Defaults the CLI's options read; here so that parsing them imports no engine.
DEFAULT_CAP = 20000

# Largest chain depth the CLI accepts; every resolved default lies below it.
MAX_KMAX = 64


# Here, not in an engine, because every command imports this module: the
# CLI's renderers and `suites` both use it.
class _Memo(dict):
    """fn(key), computed once per distinct key, on its first read."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value
