"""Scalar reference implementations that the tests check the package against.

They use only the per-symbol field helpers (``vec_add``, ``vec_scale``),
never the ``FieldContext.lincomb`` kernel the engine is built on, so they
stay independent of the code under test.
"""

from splfr.engine import Library, Vector, split
from splfr.pda import PDA


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
