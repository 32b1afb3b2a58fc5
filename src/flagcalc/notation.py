"""Parsing and printing of weight/label strings.

The grammar is a parenthesised integer list with three separators:

    '(' INT ( SEP INT )* ')'      SEP  ::=  '||'  |  '|'  |  ','

``,`` separates entries inside one block, ``|`` separates blocks, and
``||`` is the emphasised block separator that some spaces put after
their first entry (so ``(0||-1,0,1)`` has blocks (1,3) while
``(1|0,0|0)`` has blocks (1,2,1) and no emphasised separator).

Input is liberal: the Unicode lookalikes ``‖``, ``∥`` (double
bars) and ``−`` (minus) are accepted, as are spaces and a missing
outer pair of parentheses.  Output is strict ASCII, so printed labels
are diff-stable and always re-parseable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ParsedLabel", "ArgumentError", "ParseError", "parse_label", "format_entries", "format_weight",
]

# Unicode forms tolerated on input, never emitted.
_UNICODE_SUBS = {
    "‖": "||",  # DOUBLE VERTICAL LINE
    "∥": "||",  # PARALLEL TO
    "−": "-",   # MINUS SIGN
}


# str.isdigit would also take superscripts and non-ASCII decimal digits.
_DIGITS = frozenset("0123456789")
_SHOWN = 60  # a longer label is quoted in an error by its head and its length


def _quoted(text: str) -> str:
    """A label as an error message quotes it: whole, or by head and length."""
    return repr(text) if len(text) <= _SHOWN else f"{text[:_SHOWN]!r}... ({len(text)} characters)"


class ArgumentError(ValueError):
    """A refusal of an argument as given, not of the mathematics: a label,
    a twist, a leg or a column that the call cannot take.  The command line
    exits 2 on it and 1 on any other ``ValueError``."""


class ParseError(ArgumentError):
    """Raised on malformed label strings; carries a character position,
    an index into the text as given."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"cannot parse {_quoted(text)} at position {pos}: {message}")


@dataclass(frozen=True, slots=True)
class ParsedLabel:
    """Purely syntactic parse result: entries, block sizes, ``||`` present?

    Which space such a label lives on is not a syntactic question; the
    caller decides (e.g. the transform reads ``(1|0,0|0)`` as a weight
    on the twistor space because it has three blocks and no ``||``).
    """

    weight: tuple[int, ...]
    blocks: tuple[int, ...]
    double_bar: bool


def _normalise(text: str) -> tuple[str, list[int]]:
    """The text with its aliases replaced and its whitespace dropped, and
    the index in the text that each character left comes from."""
    kept = [(_UNICODE_SUBS.get(ch, ch), i) for i, ch in enumerate(text) if not ch.isspace()]
    return "".join(sub for sub, _i in kept), [i for sub, i in kept for _ in sub]


def parse_label(text: str) -> ParsedLabel:
    """Parse a label/weight string into entries + block structure."""
    s, origin = _normalise(text)
    if s.startswith("(") and s.endswith(")"):
        s, origin = s[1:-1], origin[1:-1]
    elif "(" in s or ")" in s:
        raise ParseError(text, 0, "unbalanced parentheses")
    if not s:
        raise ParseError(text, 0, "empty label")

    entries: list[int] = []
    separators: list[str] = []
    i, m = 0, len(s)
    while True:
        j = i
        if j < m and s[j] in "+-":
            j += 1
        while j < m and s[j] in _DIGITS:
            j += 1
        if j == i or (j == i + 1 and s[i] not in _DIGITS):
            raise ParseError(text, origin[i], "expected an integer")
        try:
            entries.append(int(s[i:j]))
        except ValueError:  # more digits than Python converts to an int
            digits = j - i - (s[i] in "+-")
            raise ParseError(text, origin[i], f"an integer of {digits} digits is too long") from None
        if j == m:
            break
        if s[j] == "|":
            if j + 1 < m and s[j + 1] == "|":
                separators.append("||")
                i = j + 2
            else:
                separators.append("|")
                i = j + 1
        elif s[j] == ",":
            separators.append(",")
            i = j + 1
        else:
            raise ParseError(text, origin[j], f"unexpected character {s[j]!r}")
        if i >= m:
            raise ParseError(text, origin[j], "trailing separator")

    double_bar = "||" in separators
    if double_bar and separators[0] != "||":
        raise ParseError(text, 0, "'||' may only follow the first entry")
    if separators.count("||") > 1:
        raise ParseError(text, 0, "more than one '||' separator")

    blocks: list[int] = [1]
    for sep in separators:
        if sep == ",":
            blocks[-1] += 1
        else:
            blocks.append(1)
    return ParsedLabel(tuple(entries), tuple(blocks), double_bar)


def format_entries(weight: tuple[int, ...], blocks: tuple[int, ...], double_bar: bool) -> str:
    """Inverse of parse_label, always ASCII."""
    if sum(blocks) != len(weight):
        raise ValueError(f"blocks {blocks} do not fit weight {weight}")
    parts: list[str] = []
    start = 0
    for size in blocks:
        parts.append(",".join(str(x) for x in weight[start:start + size]))
        start += size
    if double_bar:
        head, *tail = parts
        body = head + "||" + "|".join(tail) if tail else head
    else:
        body = "|".join(parts)
    return f"({body})"


def format_weight(w: tuple[int, ...]) -> str:
    """A plain weight: one block, comma-separated."""
    return format_entries(w, (len(w),), False)
