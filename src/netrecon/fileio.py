"""Line-oriented text file helpers shared by the model/dataset/result writers.

All writers emit floats with 17 significant digits so that every file
round-trips float64 values bit-exactly, and they never emit timestamps or
other run-dependent content: identical inputs produce identical bytes.
"""

from dataclasses import fields

import numpy as np

__all__ = ["FileFormatError", "fmt", "fmt_row", "adjacency_rows", "record_lines",
           "typed_value", "write_text", "LineReader"]


class FileFormatError(ValueError):
    """A structured text file could not be parsed; names file, line and field."""

    def __init__(self, path, lineno, message):
        self.path = str(path)
        self.lineno = lineno
        self.message = message
        super().__init__(f"{self.path}:{lineno}: {message}")


def fmt(x):
    """Format one float with enough digits to round-trip exactly."""
    return f"{float(x):.17g}"


def fmt_row(values):
    """Space-separated ``fmt`` of every value."""
    return " ".join(fmt(v) for v in np.asarray(values, dtype=float).ravel())


def adjacency_rows(adj):
    """One line per row of a Boolean adjacency: space-separated 0/1."""
    return [" ".join(str(int(v)) for v in row) for row in adj]


def record_lines(cls, records, sep):
    """A table of record dataclass ``cls``: a header naming each field that
    takes part in equality, then one row per record; floats by ``fmt``,
    booleans as 0/1, and ',' in text as ';' (a cell never splits a row)."""
    cols = [f for f in fields(cls) if f.compare]
    def cell(f, value):
        if f.type is float:
            return fmt(value)
        return str(int(value) if f.type is bool else value).replace(",", ";")
    return [sep.join(f.name for f in cols)] + [
        sep.join(cell(f, getattr(r, f.name)) for f in cols) for r in records]


def typed_value(raw, kind):
    """``kind(raw)``, or for ``kind`` list the floats of a comma-separated
    ``raw``; ValueError if it does not parse."""
    if kind is list:
        return [float(v) for v in raw.split(",") if v.strip()]
    return kind(raw)


def write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8 with '\n' line ends on every
    platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class LineReader:
    """Sequential reader over the lines of a structured text file.

    Skips blank lines; lines starting with '#' are collected in
    ``comments`` as (line number, text) pairs.  ``field_lines`` maps each
    key read by ``field`` to its line.  Every parse failure raises
    FileFormatError carrying the offending line number.
    """

    def __init__(self, path):
        self.path = str(path)
        with open(path, "r", encoding="utf-8") as fh:
            self._lines = fh.read().splitlines()
        self._pos = 0
        self.comments = []
        self.field_lines = {}

    def error(self, message, lineno=None):
        raise FileFormatError(self.path, self._pos if lineno is None else lineno, message)

    def at_end(self):
        """True when only blank and comment lines are left.  It reads past
        the blank and comment lines ahead of the next line, recording the
        comments as ``next_line`` does, so a comment after the last line is
        in ``comments`` too."""
        while self._pos < len(self._lines):
            line = self._lines[self._pos].strip()
            if line and not line.startswith("#"):
                return False
            self._pos += 1
            if line:
                self.comments.append((self._pos, line[1:].strip()))
        return True

    def next_line(self):
        """Return the next non-blank, non-comment line (stripped)."""
        if self.at_end():
            self.error("unexpected end of file")
        self._pos += 1
        return self._lines[self._pos - 1].strip()

    def expect_key(self, key):
        """Read a 'key value...' line and return the value part."""
        line = self.next_line()
        parts = line.split(None, 1)
        if parts[0] != key:
            self.error(f"expected field '{key}', found '{parts[0]}'")
        if len(parts) < 2:
            self.error(f"field '{key}' has no value")
        return parts[1].strip()

    def parse(self, key, raw, kind, lineno=None):
        """``typed_value(raw, kind)``; FileFormatError naming field ``key``
        at ``lineno`` (default: the line last read) if it does not parse."""
        try:
            return typed_value(raw, kind)
        except ValueError:
            self.error(f"field '{key}': cannot parse {raw!r}", lineno)

    def field(self, key, raw, kind=str, lineno=None):
        """``parse`` of a key-value field read at ``lineno`` (default: the
        line last read), recording its line in ``field_lines``; a key read
        before raises FileFormatError at this line, naming the first."""
        lineno = self._pos if lineno is None else lineno
        if key in self.field_lines:
            self.error(f"field '{key}' repeats line {self.field_lines[key]}",
                       lineno)
        self.field_lines[key] = lineno
        return self.parse(key, raw, kind, lineno)

    def expect_literal(self, literal):
        line = self.next_line()
        if line != literal:
            self.error(f"expected '{literal}', found '{line}'")

    def read_floats(self, count, what="row"):
        line = self.next_line()
        parts = line.split()
        if len(parts) != count:
            self.error(f"{what}: expected {count} values, found {len(parts)}")
        try:
            return np.array([float(v) for v in parts])
        except ValueError:
            self.error(f"{what}: non-numeric value in '{line}'")

    def read_matrix(self, name, rows, cols):
        self.expect_literal(name)
        out = np.empty((rows, cols))
        for r in range(rows):
            out[r] = self.read_floats(cols, what=f"matrix {name} row {r + 1}")
        return out
