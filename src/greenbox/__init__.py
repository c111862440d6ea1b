"""greenbox: a desk-scale computational semigroup toolkit.

Submodules:
  limits      the ledger of desk-scale limits and their checks
  words       signed words, free reduction, parsing
  munn        inverse automata, folding, Munn trees, free inverse arithmetic
  engine      enumeration, Green's relations (two algorithms), constructions
  zoo         the concrete semigroups used by the reproduction suite
  stephen     inverse presentations and Stephen's procedure
  vmaps       symbolic partial bijections on Z x N0
  identities  term evaluation and the identity catalogue
  report      the reproduction suite behind the paper-report command
  cli         command-line interface

Only ``cli``, with ``limits`` and ``words``, loads with the package; the
rest load at first use, so a command loads only what it calls.  ``cli``
stays eager because the benchmark harness looks it up in ``sys.modules``.
"""

from . import cli

__all__ = ["cli", "engine", "identities", "limits", "munn", "report",
           "stephen", "vmaps", "words", "zoo"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
