"""Reference implementations that the tests check the package against.

The engine oracles use only the per-symbol field helpers (``vec_add``,
``vec_scale``), never the ``FieldContext.lincomb`` kernel the engine is
built on, so they stay independent of the code under test.
"""

from fractions import Fraction

from splfr.engine import Library, Vector, split
from splfr.pda import PDA
from splfr.tradeoff import cutset_bound, f_bound, man_curve, pda_lower_bound


def privacy_key(library: Library, pda: PDA, p_j: Vector, i: int) -> Vector:
    """The block sum_n p_j[n] * W_{n,i} for packet row i (0-based)."""
    ctx = library.ctx
    packets = [split(file, pda.f)[i] for file in library.files]
    block = (0,) * (library.b // pda.f)
    for coeff, pkt in zip(p_j, packets):
        if coeff:
            block = ctx.vec_add(block, ctx.vec_scale(coeff, pkt))
    return block


def combine(library: Library, demand: Vector) -> Vector:
    """The full-length combination sum_n demand[n] * W_n."""
    ctx = library.ctx
    out = (0,) * library.b
    for coeff, file in zip(demand, library.files):
        if coeff:
            out = ctx.vec_add(out, ctx.vec_scale(coeff, file))
    return out


# -- grid samplers for the tradeoff checks -------------------------------
#
# These sample a rational grid.  A sampled maximum can only undershoot the
# true supremum, and a sampled bound check can only miss a violation, so
# they serve as one-sided oracles for the certified checks.


def grid(lo: Fraction, hi: Fraction, per_unit: int) -> list[Fraction]:
    """Rational grid over [lo, hi] with per_unit points per unit interval."""
    count = max(1, int((hi - lo) * per_unit))
    points = (lo + Fraction(i, per_unit) for i in range(count + 1))
    return [m for m in points if m <= hi]


def simple_converse_samples(n: int, k: int, per_unit: int) -> dict:
    """R(M)(M-1)/(N-M) at the corners and grid points of [1, N)."""
    curve = man_curve(n, k)
    ms = {p.m for p in curve.corners} | set(grid(Fraction(1), Fraction(n), per_unit))
    return {m: curve.evaluate(m) * (m - 1) / (n - m) for m in ms if 1 <= m < n}


def smooth_bound_samples(n: int, k: int, per_unit: int) -> dict:
    """R(M)/f(M) at the corners, 2 and grid points of [2, N)."""
    curve = man_curve(n, k)
    ms = {p.m for p in curve.corners} | set(grid(Fraction(2), Fraction(n), per_unit))
    return {m: curve.evaluate(m) / f_bound(n, m) for m in ms if 2 <= m < n}


def bounds_grid_ok(n: int, k: int, per_unit: int) -> bool:
    """The sampled form of the certified bounds checks of ``bounds_report``."""
    curve = man_curve(n, k)
    ms = grid(Fraction(1), Fraction(n), per_unit)
    ok = all(curve.evaluate(m) >= pda_lower_bound(n, k, m) for m in ms)
    if k >= n // 2:
        ok = ok and all(f_bound(n, m) <= cutset_bound(n, k, m) for m in ms)
    return ok
