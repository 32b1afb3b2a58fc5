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


# ----------------------------------------------------------- value base

class FrozenDict(dict):
    """The package's read-only mapping: a dict that refuses writes and hashes
    by its items, so a value that holds one stays immutable and hashable."""

    __slots__ = ()

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return FrozenDict, (dict(self),)


class _ValueType(type):
    """Builds each value class once, as it is created, from its annotated
    fields: ``__slots__``, an ``__init__`` by position or keyword that ends in
    ``__post_init__`` where the class has one, ``__eq__`` and ``__hash__`` over
    the field tuple, and with ``order=True`` the four comparisons.  A method
    the class writes itself is kept.  A field annotated ``dict[...]`` is
    stored as a ``FrozenDict``: ``None`` and a ``FrozenDict`` are stored as
    given, anything else is copied into one.  The methods are
    compiled per class and read each field directly, since labels are hashed
    and sorted on the hot path.  Each field is stored through its slot's own
    setter, bound once here and kept in field order as ``_setters``; only the
    generated ``__init__`` and ``BundleLabel.__init__`` call them."""

    def __new__(mcls, name, bases, ns, order=False):
        annotations = ns.get("__annotations__", {})
        fields = ns["__slots__"] = tuple(annotations)
        if fields:
            scope = {"_frozen": FrozenDict, **{f"_d_{f}": ns.pop(f) for f in fields if f in ns}}
            params = ", ".join(f"{f}=_d_{f}" if f"_d_{f}" in scope else f for f in fields)
            stored = {f: (f"{f} if {f} is None or {f}.__class__ is _frozen else _frozen({f})"
                          if str(annotations[f]).startswith("dict[") else f) for f in fields}
            mine, theirs = (f"({''.join(f'{who}.{f},' for f in fields)})" for who in ("self", "other"))
            ops = {"eq": "==", **(dict(lt="<", le="<=", gt=">", ge=">=") if order else {})}
            made: dict = {}
            exec("\n".join([
                f"def __init__(self, {params}):", *(f"    _set_{f}(self, {stored[f]})" for f in fields),
                "    self.__post_init__()" if "__post_init__" in ns else "",
                f"def __hash__(self):\n    return hash({mine})",
                *(f"def __{op}__(self, other):\n    if other.__class__ is self.__class__:\n"
                  f"        return {mine} {sign} {theirs}\n    return NotImplemented"
                  for op, sign in ops.items())]), scope, made)
            for method, fn in made.items():
                ns.setdefault(method, fn)
        cls = super().__new__(mcls, name, bases, ns)
        if fields:  # the compiled methods find each setter in their scope
            cls._setters = tuple(vars(cls)[f].__set__ for f in fields)
            scope.update(zip((f"_set_{f}" for f in fields), cls._setters))
        return cls


class Value(metaclass=_ValueType):
    """The frozen value base: no ``__dict__``, no assignment or deletion
    (``AttributeError``), a ``Name(field=value, ...)`` repr, and pickling
    and copying through ``__init__``."""

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def _refuse(self, name, *_value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _refuse


class ParsedLabel(Value):
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
