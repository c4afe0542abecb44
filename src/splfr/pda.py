"""Placement delivery arrays: validation, construction, bounds, and file I/O.

A PDA is an F x K array whose entries are either a star (cached by the
column's user) or an ordinary symbol in [1, S] (served by a multicast
signal).  Stars are represented by ``STAR`` (None); ordinary symbols are
1-based positive ints, never 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

STAR = None

Entry = Optional[int]
Grid = tuple[tuple[Entry, ...], ...]


class ColumnPlan(NamedTuple):
    """One user's column as the cache fill and decoding read it, built from
    ``PDA.index``.

    ``symbols`` holds s - 1 for the symbol s of each ordinary row, top to
    bottom, and ``sharers`` the other users with a symbol in common with
    the user, in order.  Layer l of ``cross`` picks, for each ordinary row,
    the l-th other position (i, j) of its symbol as (place of j among the
    sharers, place of row i among the star rows), or None past the last.
    ``rows`` picks each row in order: (0, place among the star rows) or
    (1, place among the ordinary rows).
    """

    symbols: tuple[int, ...]
    sharers: tuple[int, ...]
    cross: tuple[tuple[Optional[tuple[int, int]], ...], ...]
    rows: tuple[tuple[int, int], ...]


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
    that ``validate`` builds; equality, hashing and ``repr`` leave it out,
    as they do ``plans``, built from it on first use.
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

    @cached_property
    def plans(self) -> tuple[ColumnPlan, ...]:
        """Each column's ``ColumnPlan``, built from ``index`` once per array.

        One pass over the columns places each row among its column's star
        or ordinary rows; one over ``index`` finds the users that share a
        symbol, and one more lays each position's other positions out.  The
        other positions of a symbol in column k lie in rows starred there,
        by the defining conditions.
        """
        places, layouts, symbols = [], [], []
        for column in zip(*self.entries):
            rows, ordinary = [], []
            for e in column:  # (0, its place among the star rows) or (1, among the others)
                rows.append((0, len(rows) - len(ordinary)) if e is STAR else (1, len(ordinary)))
                if e is not STAR:
                    ordinary.append(e - 1)
            places.append([place for _, place in rows])
            layouts.append(tuple(rows))
            symbols.append(tuple(ordinary))
        shared = [set() for _ in range(self.k)]
        for positions in self.index.values():
            users = {j for _, j in positions}
            for j in users:
                shared[j] |= users
        sharers = [tuple(sorted(users - {j})) for j, users in enumerate(shared)]
        sharer = [{u: a for a, u in enumerate(users)} for users in sharers]
        cross = [[] for _ in range(self.k)]
        for positions in self.index.values():
            for i, j in positions:  # its n-th other position goes to layer n, at i's place
                at, place, layers, n = sharer[j], places[j], cross[j], 0
                for i2, j2 in positions:
                    if j2 != j:
                        if n == len(layers):
                            layers.append([None] * len(symbols[j]))
                        layers[n][place[i]] = (at[j2], place[i2])
                        n += 1
        return tuple(
            ColumnPlan(symbols[j], sharers[j], tuple(map(tuple, cross[j])), layouts[j])
            for j in range(self.k)
        )

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
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
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
    if k < 1:
        raise PdaError(f"need K >= 1, got K={k}")
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
