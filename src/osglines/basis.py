"""Index set of Schubert classes for the odd symplectic Grassmannian of lines.

Classes of IG(2, 2n+1) are indexed by pairs (l1, l2) of integers subject to

    2n-1 >= l1 >= l2 >= -1,
    l1 > n-2  implies  l1 > l2,
    l2 = -1   implies  l1 = 2n-1.

The cohomological degree of an index is l1 + l2; the top degree is 4n-3.
Each degree slice is generated directly, and the basis is the slices in
order of degree.  `check_index` is the one place an index given from outside
is validated; `ClassVector.from_terms` shares its first step, `index_pair`.

The deformation unknowns are indices too: `pair_keys` in the per-pair mode,
`mu_keys` in the per-mu mode; `check_mode` is the one place a mode is checked.
"""
from __future__ import annotations

Index = tuple[int, int]

MIN_RANK = 2
MIN_RING_RANK = 3  # products of the two special classes need (1,1) in the index set
# lazy_table(n) builds only the basis and its position map, which grow as
# n^2 (one CPU: 0.4-0.7 s, 120 MB at n = 512; 1.7-2.8 s, 438 MB at n = 1000).
# A larger rank is a typo, refused before any work is done, by the ring
# commands and by enumerate_basis (2n^2 classes); enumerate_degree costs
# O(n) at any rank and is not capped
MAX_RING_RANK = 1000

MODE_PER_PAIR = "per-pair"
MODE_PER_MU = "per-mu"
MODES = (MODE_PER_PAIR, MODE_PER_MU)

# the two conclusions of either proof route, of the CLI and of a certificate
CONCLUSION_UNIQUE_ZERO = "UniqueZero"
CONCLUSION_NOT_UNIQUE = "NotUnique"


def check_rank(n: int, minimum: int = MIN_RANK) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"rank must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"rank must be >= {minimum}, got {n}")
    return n


def _check_rank_cap(n: int) -> int:
    if n > MAX_RING_RANK:
        raise ValueError(f"ring rank must be <= {MAX_RING_RANK}, got {n}")
    return n


def check_ring_rank(n: int) -> int:
    """n, or ValueError unless MIN_RING_RANK <= n <= MAX_RING_RANK."""
    return _check_rank_cap(check_rank(n, MIN_RING_RANK))


def is_valid(n: int, lam) -> bool:
    """Total membership predicate on integer pairs."""
    l1, l2 = lam
    if not (2 * n - 1 >= l1 >= l2 >= -1):
        return False
    if l1 > n - 2 and l1 == l2:
        return False
    if l2 == -1 and l1 != 2 * n - 1:
        return False
    return True


def index_pair(n: int, lam) -> Index:
    """lam as a pair of ints.  A component may be an int or a string naming
    one; any other (a float or a bool, which int() would truncate) is
    refused with `check_index`'s error."""
    l1, l2 = lam[0], lam[1]
    if type(l1) is not int or type(l2) is not int:
        if any(isinstance(c, bool) or not isinstance(c, (int, str)) for c in (l1, l2)):
            raise ValueError(f"index {tuple(lam)} is not valid for rank {n}")
        l1, l2 = int(l1), int(l2)
    return (l1, l2)


def check_index(n: int, lam) -> Index:
    """lam as a pair of ints (`index_pair`); ValueError unless it is a class
    of rank n."""
    lam = index_pair(n, lam)
    if not is_valid(n, lam):
        raise ValueError(f"index {lam} is not valid for rank {n}")
    return lam


def check_mode(mode) -> bool:
    """Whether `mode` is the per-pair mode; ValueError unless it is in MODES."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode == MODE_PER_PAIR


def degree(lam) -> int:
    return lam[0] + lam[1]


def index_sort_key(lam) -> tuple[int, int]:
    # degree-major order, larger first component first within a degree
    return (lam[0] + lam[1], -lam[0])


def max_degree(n: int) -> int:
    return 4 * n - 3


def top_class(n: int) -> Index:
    return (2 * n - 1, 2 * n - 2)


def enumerate_basis(n: int) -> list[Index]:
    """All valid indices, sorted by (degree, first component descending).

    A rank above MAX_RING_RANK is refused with the ring commands' error.
    """
    _check_rank_cap(check_rank(n))
    return classes_in_degrees(n, range(max_degree(n) + 1))


def enumerate_degree(n: int, d: int) -> list[Index]:
    """The degree-d slice of the basis; empty outside 0..4n-3."""
    check_rank(n)
    if d < 0 or d > max_degree(n):
        return []
    # l1 runs down from min(2n-1, d+1) (so l2 >= -1) to ceil(d/2) (so l1 >= l2):
    # O(d) work, whatever the size of the basis
    top = min(2 * n - 1, d + 1)
    pairs = ((l1, d - l1) for l1 in range(top, (d + 1) // 2 - 1, -1))
    return [lam for lam in pairs if is_valid(n, lam)]


def classes_in_degrees(n: int, degrees) -> list[Index]:
    """The slices of the given degrees, concatenated in the order given."""
    return [lam for d in degrees for lam in enumerate_degree(n, d)]


def betti_numbers(n: int) -> list[int]:
    """Sizes of the degree slices, degrees 0..4n-3."""
    check_rank(n)
    return [len(enumerate_degree(n, d)) for d in range(max_degree(n) + 1)]


def pair_keys(n: int) -> list[tuple[Index, Index]]:
    """All legal (lam, mu) coefficient keys in canonical order."""
    return [(lam, mu) for d in range(2 * n, max_degree(n) + 1)
            for lam in enumerate_degree(n, d) for mu in enumerate_degree(n, d - 2 * n)]


def mu_keys(n: int) -> list[Index]:
    """All legal per-mu coefficient keys (classes that correct something)."""
    return classes_in_degrees(n, range(2 * n - 2))
