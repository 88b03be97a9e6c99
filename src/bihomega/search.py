"""Bounded brute-force searches used to generate operator-family fixtures.

Candidates are map families with integer entries in [-bound, bound],
enumerated in a fixed scan order (indices over (monoid element, row,
column), each coordinate counting up from -bound, the last coordinate
fastest), so results are deterministic.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import OmegaAlgebra, RotaBaxterFamily, check_rota_baxter
from .errors import MalformedInputError, PreconditionError
from .linalg import Mat
from .rationals import Rat

DEFAULT_CAP = 200_000


def enumeration_size(a: OmegaAlgebra, bound: int) -> int:
    cells = a.dim * a.dim * a.omega.size
    return (2 * bound + 1) ** cells


def _require_enumerable(a: OmegaAlgebra, bound: int, cap: int):
    """Refuse a negative bound or cap, and an enumeration larger than ``cap``."""
    if bound < 0:
        raise MalformedInputError(f"search bound must be non-negative, got {bound}")
    if cap < 0:
        raise MalformedInputError(f"search cap must be non-negative, got {cap}")
    total = enumeration_size(a, bound)
    if total > cap:
        raise PreconditionError(
            f"enumeration size {total} exceeds cap {cap}; use a smaller bound"
        )


def iter_map_families(a: OmegaAlgebra, bound: int):
    """All integer map families within the bound, in scan order."""
    d = a.dim
    size = a.omega.size
    cells = d * d * size
    values = [Rat(v) for v in range(-bound, bound + 1)]
    for combo in iproduct(values, repeat=cells):
        maps = {}
        for w in range(size):
            chunk = combo[w * d * d : (w + 1) * d * d]
            maps[w] = Mat(d, d, list(chunk))
        yield maps


def iter_rbf(a: OmegaAlgebra, bound: int, weight, cap: int = DEFAULT_CAP):
    """The weight-``weight`` families within the bound, lazily in scan order;
    the bound and cap are checked when the first one is asked for."""
    _require_enumerable(a, bound, cap)
    weight = Rat(weight)
    for maps in iter_map_families(a, bound):
        rb = RotaBaxterFamily(weight, maps)
        if check_rota_baxter(a, rb) is None:
            yield rb


def search_rbf(a: OmegaAlgebra, bound: int, weight, cap: int = DEFAULT_CAP) -> list[RotaBaxterFamily]:
    """All weight-``weight`` families within the bound, in scan order."""
    return list(iter_rbf(a, bound, weight, cap))


def first_nonscalar(families):
    """First family (any object with ``maps``) with a map that is not a
    scalar multiple of the identity; reads an iterator only up to it."""
    for fam in families:
        if any(m != Mat.scalar(m.rows, m.at(0, 0)) for m in fam.maps.values() if m.rows):
            return fam
    return None
