"""The .vee configuration file format.

Grammar (whitespace separated tokens, '#' starts a comment):

    dim <n>                                  first non-comment line, once
    vector <q_1> ... <q_n> mult <q or ?sym>  one line per covector
    lambda2 <q>                              optional

where <q> is a rational literal: optional minus, digits 0-9, optional /digits.
Multiplicities may be symbolic ('?name', each name used once); symbolic files
feed the constraint and search tools instead of the exact checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .configuration import VConfiguration, build_configuration
from .errors import DimensionMismatch, InvalidParams, ParseError

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_SYMBOL_RE = re.compile(r"^\?[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class FileEntry:
    coords: tuple[Fraction, ...]
    mult: Fraction | None
    symbol: str | None


@dataclass(frozen=True)
class ConfigFile:
    dim: int
    entries: tuple[FileEntry, ...]
    lambda2: Fraction | None

    def has_symbols(self) -> bool:
        return any(e.symbol is not None for e in self.entries)

    def symbols(self) -> tuple[str, ...]:
        return tuple(e.symbol for e in self.entries if e.symbol is not None)

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [e.coords for e in self.entries]

    def build(self) -> VConfiguration:
        if self.has_symbols():
            raise InvalidParams(
                "file has symbolic multiplicities; use the constraints/family/search commands"
            )
        return build_configuration(self.dim, [(e.coords, e.mult) for e in self.entries])


def parse_rational(token: str, line: int | None = None, column: int | None = None) -> Fraction:
    """The rational <q> of the grammar; ParseError, at `line` and `column`, otherwise."""
    match = _RATIONAL_RE.fullmatch(token)
    if not match:
        raise ParseError(f"expected a rational number, got {token!r}", line, column)
    num, den = match.groups()
    try:
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ParseError("zero denominator", line, column) from None
    except ValueError:  # more digits than int converts from str
        raise ParseError(f"number too long ({len(token)} characters)", line, column) from None


def parse_config_file(text: str) -> ConfigFile:
    dim: int | None = None
    entries: list[FileEntry] = []
    lambda2: Fraction | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "dim":
            if dim is not None:
                raise ParseError("duplicate dim directive", lineno, 1)
            arg = " ".join(tokens[1:])
            if not (arg.isascii() and arg.isdigit()) or int(arg) < 1:
                raise ParseError(f"usage: dim <positive integer>, got {arg!r}", lineno, 1)
            dim = int(arg)
        elif head == "vector":
            if dim is None:
                raise ParseError("dim must come before vector lines", lineno, 1)
            if len(tokens) != dim + 3 or tokens[-2] != "mult":
                raise DimensionMismatch(
                    f"line {lineno}: expected 'vector <{dim} rationals> mult <value>'"
                )
            coords = tuple(
                parse_rational(tok, lineno, k + 2) for k, tok in enumerate(tokens[1 : 1 + dim])
            )
            if all(x == 0 for x in coords):
                raise ParseError("zero covector", lineno, 2)
            mtok = tokens[-1]
            if _SYMBOL_RE.match(mtok):
                if any(e.symbol == mtok[1:] for e in entries):
                    raise ParseError(f"repeated multiplicity symbol {mtok!r}", lineno, dim + 3)
                entries.append(FileEntry(coords, None, mtok[1:]))
            else:
                mult = parse_rational(mtok, lineno, dim + 3)
                if mult == 0:
                    raise ParseError("zero multiplicity", lineno, dim + 3)
                entries.append(FileEntry(coords, mult, None))
        elif head == "lambda2":
            if dim is None:
                raise ParseError("dim must come before lambda2", lineno, 1)
            if lambda2 is not None:
                raise ParseError("duplicate lambda2 directive", lineno, 1)
            if len(tokens) != 2:
                raise ParseError("usage: lambda2 <rational>", lineno, 1)
            lambda2 = parse_rational(tokens[1], lineno, 2)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)

    if dim is None:
        raise ParseError("missing dim directive")
    if not entries:
        raise ParseError("no vector lines")
    return ConfigFile(dim=dim, entries=tuple(entries), lambda2=lambda2)


def render_config_file(cf: ConfigFile) -> str:
    lines = [f"dim {cf.dim}"]
    for e in cf.entries:
        coords = " ".join(str(x) for x in e.coords)
        mult = f"?{e.symbol}" if e.symbol is not None else str(e.mult)
        lines.append(f"vector {coords} mult {mult}")
    if cf.lambda2 is not None:
        lines.append(f"lambda2 {cf.lambda2}")
    return "\n".join(lines) + "\n"


def config_file_from_configuration(
    cfg: VConfiguration, lambda2: Fraction | None = None
) -> ConfigFile:
    entries = tuple(FileEntry(coords=e.covector, mult=e.mult, symbol=None) for e in cfg.entries)
    return ConfigFile(dim=cfg.dim, entries=entries, lambda2=lambda2)
