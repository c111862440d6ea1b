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
"""

from . import (cli, engine, identities, limits, munn, report, stephen, vmaps,
               words, zoo)

__all__ = ["cli", "engine", "identities", "limits", "munn", "report",
           "stephen", "vmaps", "words", "zoo"]
__version__ = "0.1.0"
