"""Integer tokens of the text inputs.

PD codes, presentations and the integer options of the command line
spell integers in ASCII digits only, with a leading sign only where a
sign is allowed.  Python's `int()`, `str.isdigit()` and
the regular expression `\\d` also take other digit scripts, `_` separators
and surrounding spaces, so every text parser checks its integers here.
"""

from __future__ import annotations

import re

UNSIGNED = "[0-9]+"
SIGNED = "[+-]?[0-9]+"


def parse_int(token: str, what: str, signed: bool = False) -> int:
    """The integer `token` spells, or ValueError naming `what`."""
    if not re.fullmatch(SIGNED if signed else UNSIGNED, token):
        kind = "an integer" if signed else "a nonnegative integer"
        raise ValueError(f"{what}: expected {kind} in ASCII digits, got {token!r}")
    return int(token)
