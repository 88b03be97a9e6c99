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


def search_rbf(
    a: OmegaAlgebra, bound: int, weight, cap: int = DEFAULT_CAP
) -> list[RotaBaxterFamily]:
    """All weight-``weight`` families within the bound, in scan order."""
    _require_enumerable(a, bound, cap)
    weight = Rat(weight)
    hits = []
    for maps in iter_map_families(a, bound):
        rb = RotaBaxterFamily(weight, maps)
        if check_rota_baxter(a, rb) is None:
            hits.append(rb)
    return hits


def is_scalar_family(maps: dict, dim: int) -> bool:
    """Every map a scalar multiple of the identity."""
    for m in maps.values():
        diag = m.at(0, 0) if dim else None
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    if m.at(i, j) != diag:
                        return False
                elif m.at(i, j):
                    return False
    return True


def first_nonscalar(families: list):
    """First family (any object with ``maps``) that is not scalar."""
    for fam in families:
        dim = next(iter(fam.maps.values())).rows if fam.maps else 0
        if not is_scalar_family(fam.maps, dim):
            return fam
    return None


def search_nijenhuis(a: OmegaAlgebra, bound: int, cap: int = DEFAULT_CAP) -> list:
    """All Nijenhuis families within the bound, in scan order."""
    from .deformation import NijenhuisFamily, check_nijenhuis

    _require_enumerable(a, bound, cap)
    hits = []
    for maps in iter_map_families(a, bound):
        nf = NijenhuisFamily(maps)
        if check_nijenhuis(a, nf) is None:
            hits.append(nf)
    return hits
