"""What every text input shares: the one declared error for rejected
input, the line rule of the text formats (`#` comments, blank lines,
lines counted from 1), the bound on the numbers that input may spell out,
and how error messages print any number and quote any input."""

import math
from typing import Iterator

# CPython converts no int of more than 4,300 decimal digits to or from str,
# and the conversion time grows with the square of the length.  Numbers in
# card tokens, rubric lines and mark sheets stay far below that, so that
# sums and products of them still print.
MAX_DIGITS = 1000

# Input that an error message quotes is cut after this many characters.
QUOTE_LIMIT = 80


class InputError(ValueError):
    """Input was rejected: a deck, card, category, graph, rubric or mark
    sheet that the library cannot answer for (the CLI exits 2)."""


def content_lines(text: str) -> Iterator[tuple]:
    """(line number, line) for each line of `text` that is not blank once
    its `#` comment is cut off and it is stripped; lines count from 1."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:  # a line without a comment builds no list
            line = line[:line.index("#")]
        line = line.strip()
        if line:
            yield lineno, line


def parse_digits(digits: str, error: type, context: str) -> int:
    """int(digits) for a run of decimal digits; raises `error`, an
    InputError subclass, when there are more than MAX_DIGITS of them."""
    if len(digits) > MAX_DIGITS:
        raise error(f"{context}: a number of {len(digits)} digits exceeds "
                    f"the limit of {MAX_DIGITS}")
    return int(digits)


def render_int(n: int) -> str:
    """str(n), or "a number of about N digits" when n is too long to
    convert, so that an error message about a huge deck can still be made."""
    if n.bit_length() <= 3 * MAX_DIGITS:
        return str(n)
    digits = int(n.bit_length() * math.log10(2)) + 1
    return f"a number of about {digits} digits"


def quote(value) -> str:
    """repr(value), with a string of more than QUOTE_LIMIT characters cut
    there and the number of characters cut said after it."""
    if isinstance(value, str) and len(value) > QUOTE_LIMIT:
        return (f"{value[:QUOTE_LIMIT]!r}... "
                f"({len(value) - QUOTE_LIMIT} more characters)")
    return repr(value)
