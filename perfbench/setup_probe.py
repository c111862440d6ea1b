"""One-time program preparation, and a probe that times it in a fresh process.

Run as ``python3 perfbench/setup_probe.py WORKLOAD SRC`` it imports greenbox
from SRC, performs the workload's preparation and prints the seconds taken.
Run as ``python3 perfbench/setup_probe.py --reference`` it prints the seconds
taken to import ``REFERENCE_IMPORTS`` instead.  Only ``sys`` and ``time`` are
imported before the clock starts, so the time includes every module pulled
in.
"""

import sys
import time

# Standard-library modules greenbox does not use.  Importing them in a fresh
# interpreter is the reference work that set-up time is scaled by, in the
# way ``speed.py`` scales job times: set-up is import work, which speeds up
# and slows down with the host less than the job kernel does.
REFERENCE_IMPORTS = ("logging", "email.message", "email.parser",
                     "http.client", "unittest", "asyncio")
# Their import time at reference speed.
REFERENCE_IMPORT_S = 0.1

FREE_PRESENTATION = "inv-semigroup a b"
M_PRESENTATION = "inv-monoid a b ; b b = b ; b = b a b a^-1 ; a a^-1 = 1"
# Two commuting bicyclic generators: Schutzenberger graphs are infinite, so
# stage traces never close and grow by about k^2/2 vertices in k stages.
COMMUTING_PRESENTATION = "inv-monoid a b ; a a^-1 = 1 ; b b^-1 = 1 ; a b = b a"


def prepare(workload: str) -> dict:
    """One-time preparation before the first job.  Only the D-class
    signature jobs of ``inverse_words`` reuse a prepared object, the free
    presentation; every CLI job parses its own input, so for the other
    workloads set-up is the import alone."""
    if workload == "inverse_words":
        from greenbox import stephen
        return {"free": stephen.parse_presentation(FREE_PRESENTATION)}
    return {}


if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1] == "--reference":
        for name in REFERENCE_IMPORTS:
            __import__(name)
    else:
        sys.path.insert(0, sys.argv[2])
        import greenbox  # noqa: F401  (the import is what is timed)
        prepare(sys.argv[1])
    print(repr(time.perf_counter() - start))
