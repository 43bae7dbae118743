"""Shared exception types, and the line reader behind the three text formats
(graph, table, ring)."""

from __future__ import annotations

# Largest count or id a text file may hold.  The searches stop far below it;
# the bound keeps a one-line file from asking for an arbitrarily large object.
_MAX_COUNT = 1 << 16


class FormatError(ValueError):
    """Malformed text input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class TooLargeError(ValueError):
    """Instance exceeds a configured size guard."""


def _check_name(name: str) -> None:
    """Raise ValueError unless a writer can put name on a line that its
    reader reads back as name: one token, with no whitespace and no ``#``."""
    if "#" in name or name.split() != [name]:
        raise ValueError(f"name {name!r} is not one token free of whitespace and '#'")


class _LineReader:
    """The token lists of a text file's lines after its header line.

    ``#`` starts a comment and blank lines are skipped.  ``line`` is the
    1-based number of the line last read, or None once the input is used
    up, so ``error`` reports end-of-input faults without a line number.
    Integers are read only through ``number`` and upper-triangular tables
    only through ``triangle``; malformed input raises FormatError.
    """

    def __init__(self, text: str, header: str):
        self._lines = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self._lines.append((no, line))
        if not self._lines:
            raise FormatError(f"missing header '{header}'")
        if self._lines[0][1] != header:
            raise FormatError(f"expected header '{header}'", self._lines[0][0])
        self._pos = 1
        self.line: int | None = self._lines[0][0]

    def next(self) -> list[str] | None:
        """Tokens of the next line, or None at the end of the input."""
        if self._pos == len(self._lines):
            self.line = None
            return None
        self.line, text = self._lines[self._pos]
        self._pos += 1
        return text.split()

    def __iter__(self):
        while (parts := self.next()) is not None:
            yield parts

    def error(self, message: str) -> FormatError:
        return FormatError(message, self.line)

    def number(self, token: str, bad: str, far: str | None = None,
               lo: int = 0, hi: int = _MAX_COUNT) -> int:
        """token as an integer in lo..hi.  Raises FormatError(bad) unless it
        is a string of ASCII digits, and FormatError(far or bad) when it is
        out of range."""
        if not (token.isascii() and token.isdigit()):
            raise self.error(bad)
        # int() refuses very long digit strings, so compare lengths first
        if len(token.lstrip("0")) > len(str(hi)) or not lo <= int(token) <= hi:
            raise self.error(far or bad)
        return int(token)

    def triangle(self, first: int, last: int) -> list[list[int]]:
        """A symmetric (last+1) x (last+1) table read as its upper triangle:
        one line per row i in first..last, holding the entries in columns
        i..last, each in 0..last.  Rows and columns below first are 0."""
        rows = []
        for i in range(first, last + 1):
            parts = self.next()
            if parts is None:
                raise self.error(f"expected {last - first + 1} rows, got {i - first}")
            if len(parts) != last - i + 1:
                raise self.error(
                    f"row {i}: expected {last - i + 1} entries, got {len(parts)}"
                )
            bad = f"row {i}: non-integer entry"
            rows.append([
                self.number(p, bad, f"row {i}: entry {p} out of range", hi=last)
                for p in parts
            ])
        full = [[0] * (last + 1) for _ in range(last + 1)]
        for i, row in enumerate(rows, start=first):
            for j, v in enumerate(row, start=i):
                full[i][j] = v
                full[j][i] = v
        return full
