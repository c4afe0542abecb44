"""Placement delivery arrays: validation, construction, bounds, and file I/O.

A PDA is an F x K array whose entries are either a star (cached by the
column's user) or an ordinary symbol in [1, S] (served by a multicast
signal).  Stars are represented by ``STAR`` (None); ordinary symbols are
1-based positive ints, never 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

STAR = None

Entry = Optional[int]
Grid = tuple[tuple[Entry, ...], ...]


class PdaError(ValueError):
    """A grid that is not a valid PDA, or a malformed PDA file."""


class UnequalStarCount(PdaError):
    """Columns do not all contain the same number of stars."""


class MissingSymbol(PdaError):
    """Some ordinary symbol in [1, S] never occurs."""


class CollisionSameRowOrColumn(PdaError):
    """Two equal ordinary entries share a row or a column."""


class MissingStarPair(PdaError):
    """The 2x2 sub-array of two equal ordinary entries lacks a star."""


class ParseError(PdaError):
    """Malformed PDA file."""


@dataclass(frozen=True)
class PDA:
    """A validated (K, F, Z, S) placement delivery array.

    Immutable; construct through :func:`validate`, :func:`man_pda`, or
    :func:`parse_pda`.  ``index`` is the symbol -> positions map, row-major,
    that ``validate`` builds; equality, hashing and ``repr`` leave it out.
    """

    k: int
    f: int
    z: int
    s: int
    entries: Grid
    index: dict[int, list[tuple[int, int]]] = field(compare=False, repr=False)

    def column(self, j: int) -> tuple[Entry, ...]:
        """Entries of column j (0-based user index)."""
        return tuple(row[j] for row in self.entries)

    def symbol_positions(self, s: int) -> list[tuple[int, int]]:
        """0-based (row, col) positions where ordinary symbol s occurs."""
        return list(self.index.get(s, ()))

    @property
    def parameters(self) -> tuple[int, int, int, int]:
        return (self.k, self.f, self.z, self.s)


def _as_grid(rows: Sequence[Sequence[Entry]]) -> Grid:
    if not rows or not rows[0]:
        raise PdaError("empty grid")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise PdaError("grid is not rectangular")
    return tuple(tuple(row) for row in rows)


def validate(rows: Sequence[Sequence[Entry]]) -> PDA:
    """Check the defining conditions and return a PDA with derived (K,F,Z,S).

    Raises UnequalStarCount, MissingSymbol, CollisionSameRowOrColumn, or
    MissingStarPair on the first violated condition.
    """
    grid = _as_grid(rows)
    f, k = len(grid), len(grid[0])

    star_counts = [sum(1 for row in grid if row[j] is STAR) for j in range(k)]
    z = star_counts[0]
    if any(c != z for c in star_counts):
        raise UnequalStarCount(f"star counts per column differ: {star_counts}")

    positions: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(grid):
        for j, e in enumerate(row):
            if e is STAR:
                continue
            if not isinstance(e, int) or e < 1:
                raise PdaError(f"ordinary symbol must be a positive int, got {e!r}")
            positions.setdefault(e, []).append((i, j))

    s = max(positions) if positions else 0
    for symbol in range(1, s + 1):
        if symbol not in positions:
            raise MissingSymbol(f"symbol {symbol} never occurs (S={s})")

    for symbol, pos in positions.items():
        for (i, j), (i2, j2) in combinations(pos, 2):
            if i == i2 or j == j2:
                raise CollisionSameRowOrColumn(
                    f"symbol {symbol} at ({i},{j}) and ({i2},{j2})"
                )
            if grid[i][j2] is not STAR or grid[i2][j] is not STAR:
                raise MissingStarPair(
                    f"symbol {symbol} at ({i},{j}) and ({i2},{j2})"
                )

    return PDA(k=k, f=f, z=z, s=s, entries=grid, index=positions)


def regularity(pda: PDA) -> Optional[int]:
    """The common multiplicity g of ordinary symbols, or None.

    None is returned both when multiplicities differ and, by convention,
    when the array has no ordinary symbols at all.
    """
    if pda.s == 0:
        return None
    values = {len(pda.symbol_positions(sym)) for sym in range(1, pda.s + 1)}
    if len(values) == 1:
        return values.pop()
    return None


def man_pda(k: int, t: int) -> PDA:
    """The array whose rows are the t-subsets of [k], in lexicographic order.

    Stars mark columns inside the row's subset; elsewhere the entry is the
    lexicographic rank (1-based) of the (t+1)-subset formed by adjoining the
    column.  Parameters are (k, C(k,t), C(k-1,t-1), C(k,t+1)).
    """
    if not 0 <= t <= k:
        raise PdaError(f"t={t} out of range [0, {k}]")
    users = range(1, k + 1)
    rows_subsets = list(combinations(users, t))
    rank = {sub: r for r, sub in enumerate(combinations(users, t + 1), start=1)}
    grid = []
    for subset in rows_subsets:
        members = set(subset)
        row: list[Entry] = []
        for j in users:
            if j in members:
                row.append(STAR)
            else:
                row.append(rank[tuple(sorted(members | {j}))])
        grid.append(row)
    return validate(grid)


def memory_load(pda: PDA, n: int) -> tuple[Fraction, Fraction]:
    """Exact memory-load pair (M, R) = (1 + Z(N-1)/F, S/F) for N files."""
    if n < 2:
        raise PdaError(f"need at least 2 files, got {n}")
    m = 1 + Fraction(pda.z * (n - 1), pda.f)
    r = Fraction(pda.s, pda.f)
    return m, r


def symbol_count_bound(pda: PDA) -> tuple[Fraction, bool]:
    """Lower bound nF/(KF+F-n) on S, with n = K(F-Z) ordinary entries.

    The second component reports whether the bound is met with equality,
    checked through its structural characterization: n/F ordinary entries
    in every row and every symbol occurring n/bound times.  Symbol counts
    pinned at that multiplicity force S to equal the bound.
    """
    k, f, z, s = pda.parameters
    n = k * (f - z)
    bound = Fraction(n * f, k * f + f - n)
    if n == 0:
        return bound, True
    per_row = Fraction(n, f)
    if any(sum(1 for e in row if e is not STAR) != per_row for row in pda.entries):
        return bound, False
    per_symbol = Fraction(n) / bound
    counts = {sym: len(pda.symbol_positions(sym)) for sym in range(1, s + 1)}
    tight = all(c == per_symbol for c in counts.values())
    return bound, tight


def lsub_parameters(k: int, t: int) -> tuple[Fraction, Fraction, int]:
    """Memory coefficient, load, and subpacketization of the low-F construction.

    Valid for k > 2 and t in [2, k-1] with t | k or (k-t) | k.  Returns
    (t/k, (k-t)/t, F) where F = (t/k) * (k / min(t, k-t)) ** min(t, k-t);
    memory is M = 1 + (t/k)(N-1).
    """
    if k <= 2 or not 2 <= t <= k - 1:
        raise PdaError(f"need k > 2 and t in [2, k-1], got k={k}, t={t}")
    if k % t != 0 and k % (k - t) != 0:
        raise PdaError(f"need t | k or (k-t) | k, got k={k}, t={t}")
    mcoeff = Fraction(t, k)
    r = Fraction(k - t, t)
    base = min(t, k - t)
    f = Fraction(t, k) * Fraction(k, base) ** base
    assert f.denominator == 1
    return mcoeff, r, int(f)


# -- text format ---------------------------------------------------------
#
# Line 1: "PDA K=<k> F=<f>"; then F lines of K whitespace-separated tokens,
# each "*" or a positive symbol in ASCII decimal digits.  Z and S are derived
# on parse.


def render_pda(pda: PDA) -> str:
    lines = [f"PDA K={pda.k} F={pda.f}"]
    width = max(len(str(pda.s)), 1)
    for row in pda.entries:
        lines.append(" ".join(("*" if e is STAR else str(e)).rjust(width) for e in row))
    return "\n".join(lines) + "\n"


def _is_decimal(tok: str) -> bool:
    """ASCII digits only, as ``render_pda`` writes; ``isdigit`` alone takes "²"."""
    return tok.isascii() and tok.isdigit()


def parse_pda(text: str) -> PDA:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "PDA":
        raise ParseError(f"bad header: {lines[0]!r}")
    fields = dict(part.partition("=")[::2] for part in header[1:])
    k, f = fields.get("K", ""), fields.get("F", "")
    if not (_is_decimal(k) and _is_decimal(f)):
        raise ParseError(f"bad header: {lines[0]!r}")
    k, f = int(k), int(f)
    if len(lines) - 1 != f:
        raise ParseError(f"expected {f} rows, got {len(lines) - 1}")
    grid: list[list[Entry]] = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != k:
            raise ParseError(f"expected {k} tokens per row, got {len(tokens)}: {line!r}")
        row: list[Entry] = []
        for tok in tokens:
            if tok == "*":
                row.append(STAR)
            elif _is_decimal(tok) and int(tok) >= 1:
                row.append(int(tok))
            else:
                raise ParseError(f"bad token {tok!r}")
        grid.append(row)
    return validate(grid)
