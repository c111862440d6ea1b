"""The ledger of desk-scale limits: every limit and budget default, by
name, with its refusal, and the checks that refuse an amount over a limit
or a value under its lower bound.  The CLI prints either refusal as one
``error:`` line and exits 2.

A parameter whose default is an entry (``witness_margin``, the Stephen
stages and vertices, ``enumerate_oracle``'s ``closure_elements``) binds it
at import: pass the parameter.  Every other read happens at the check."""


class BudgetError(ValueError):
    """A requested computation exceeds its declared desk-scale budget."""


LIMITS = {
    # name: value                     unit: what it bounds
    "table_cells": 10_000_000,        # cells: n² of a multiplication table
    "closure_elements": 10_000,       # elements: an oracle closure, transf:
    "ball_elements": 1_000_000,       # elements: a ball_enumerate ball
    "iso_elements": 64,               # elements: an isomorphism search
    "exhaustive_triples": 200,        # elements: all triples of a table read
    "sampled_triples": 100_000,       # triples: sampled in a larger table
    "witness_margin": 3,              # radii: multipliers reach margin·r
    "pool_elements": 100_000,         # elements: a witness multiplier pool
    "witness_pairs": 10_000_000,      # pairs: sources of a witnessed partition
    "word_letters": 100_000,          # letters: a parsed word
    "term_nodes": 256,                # nodes: a parsed term
    "assignments": 10_000_000,        # assignments: one identity check
    "transf_points": 5,               # points: a transformation domain
    "free_elements": 5_000,           # elements: nonzero words of freenil:
    "pattern_word": 24,               # letters: a word matched to a pattern
    "pattern_letters": 6,             # letters: a pattern
    "vmap_word_length": 12,           # letters: words of a V-map ball
    "stephen_stages": 40,             # stages: a Stephen run
    "stephen_vertices": 20_000,       # vertices: a Stephen stage
    "presented_elements": 200,        # elements: a presented table
}

_PATTERN = ("pattern matching capped at |w| <= {pattern_word}, "
            "|pattern| <= {pattern_letters}")
REFUSALS = {    # need's text for each limit it checks
    "table_cells": "a table of {n} elements needs {amount} cells, "
                   "over the budget of {limit}",
    "closure_elements": "{amount} generators exceed the element budget "
                        "of {limit}",
    "ball_elements": "ball exceeded {limit} elements",
    "iso_elements": "isomorphism search refused above {limit} elements",
    "pool_elements": "ball exceeded {limit} elements",
    "witness_pairs": "witnessed analysis needs {amount} hit-row cells, "
                     "over the budget of {limit}",
    "assignments": "{n}^{k} assignments exceed the budget of {limit}",
    "transf_points": "transformation domain capped at {limit} points",
    "free_elements": "free object exceeds {limit} nonzero elements",
    "pattern_word": _PATTERN,
    "pattern_letters": _PATTERN,
}


def need(name: str, amount: int, refusal: str = "", **fields) -> None:
    """BudgetError when ``amount`` exceeds the limit ``name``, with the
    refusal text (the entry's by default) formatted with ``fields``, the
    amount, the limit and every ledger value by its name."""
    limit = LIMITS[name]
    if amount > limit:
        raise BudgetError((refusal or REFUSALS[name]).format(
            **LIMITS, limit=limit, amount=amount, **fields))


def at_least(what: str, value: int, low: int = 1) -> None:
    """ValueError "<what> must be >= <low>" when ``value`` is below it."""
    if value < low:
        raise ValueError(f"{what} must be >= {low}")
