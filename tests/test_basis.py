import importlib
import pkgutil

import pytest

from osglines import (ClassVector, DeformationSpec, MODE_PER_PAIR,
                      evaluate_expression, gw_constant, parse_expression,
                      pieri_tau1)
from osglines.basis import (betti_numbers, degree, enumerate_basis,
                            enumerate_degree, is_valid, max_degree, top_class)


def oracle_valid(n, lam):
    # the three membership conditions, written out independently
    l1, l2 = lam
    if not (2 * n - 1 >= l1 and l1 >= l2 and l2 >= -1):
        return False
    if l1 > n - 2 and not l1 > l2:
        return False
    if l2 == -1 and not l1 == 2 * n - 1:
        return False
    return True


def oracle_basis(n):
    grid = [(a, b) for a in range(-1, 2 * n) for b in range(-1, 2 * n)]
    found = [lam for lam in grid if oracle_valid(n, lam)]
    found.sort(key=lambda lam: (lam[0] + lam[1], -lam[0]))
    return found


@pytest.mark.parametrize("n", range(2, 9))
def test_enumeration_matches_grid_oracle(n):
    assert enumerate_basis(n) == oracle_basis(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_validity_matches_oracle_on_grid(n):
    for a in range(-2, 2 * n + 2):
        for b in range(-2, 2 * n + 2):
            assert is_valid(n, (a, b)) == oracle_valid(n, (a, b))


def test_validity_examples():
    assert is_valid(3, (5, -1)) is True
    assert is_valid(3, (2, 2)) is False
    assert is_valid(3, (0, 0)) is True
    assert is_valid(2, (1, 1)) is False


def test_degree_examples():
    assert degree((5, 4)) == 9
    assert degree((5, -1)) == 4
    assert degree((0, 0)) == 0


def test_basis_sizes():
    assert len(enumerate_basis(3)) == 18
    assert len(enumerate_basis(2)) == 8


def test_degree_profile_n3():
    assert betti_numbers(3) == [1, 1, 2, 2, 3, 3, 2, 2, 1, 1]


def test_degree_slices_n3():
    assert set(enumerate_degree(3, 4)) == {(4, 0), (3, 1), (5, -1)}
    assert enumerate_degree(3, 10) == []
    assert enumerate_degree(3, -1) == []
    assert enumerate_degree(3, 0) == [(0, 0)]


@pytest.mark.parametrize("n", range(3, 9))
def test_betti_symmetry(n):
    b = betti_numbers(n)
    top = max_degree(n)
    for d in range(top + 1):
        assert b[d] == b[top - d]


@pytest.mark.parametrize("n", range(2, 9))
def test_top_class_unique(n):
    assert enumerate_degree(n, max_degree(n)) == [top_class(n)]
    assert max(degree(lam) for lam in enumerate_basis(n)) == max_degree(n)


def test_slices_are_restrictions_of_the_basis():
    for n in range(2, 7):
        basis = enumerate_basis(n)
        for d in range(0, max_degree(n) + 1):
            assert enumerate_degree(n, d) == [l for l in basis if degree(l) == d]


def test_rejects_small_rank():
    with pytest.raises(ValueError):
        enumerate_basis(1)
    with pytest.raises(TypeError):
        enumerate_basis("3")


def test_degree_slice_is_rank_independent():
    # generated directly, so the size of the basis (2 * 10**16 classes) is never paid
    assert enumerate_degree(10**8, 3) == [(3, 0), (2, 1)]


INVALID = r"index \(2, 2\) is not valid for rank 3$"
REJECT_2_2 = [
    ("ClassVector", lambda t: ClassVector(3, {(2, 2): 1}), "^"),
    ("ClassVector.basis", lambda t: ClassVector.basis(3, (2, 2)), "^"),
    ("pieri_tau1", lambda t: pieri_tau1(3, (2, 2)), "^"),
    ("table.product", lambda t: t.product([1, 0], [2, 2]), "^"),
    ("gw_constant", lambda t: gw_constant(t, (1, 0), (1, 1), (2, 2), 0), "^"),
    ("evaluate_expression",
     lambda t: evaluate_expression(parse_expression("tau[2,2]"), t), "^"),
    ("DeformationSpec",
     lambda t: DeformationSpec(3, MODE_PER_PAIR, {((5, 3), (2, 2)): 1}),
     "^malformed key .*: "),
]


@pytest.mark.parametrize("call, prefix", [(c, p) for _, c, p in REJECT_2_2],
                         ids=[name for name, _, _ in REJECT_2_2])
def test_every_entry_point_rejects_an_invalid_index(table3, call, prefix):
    # (2, 2) is a diagonal pair above n - 2, so not a class at n = 3; every
    # entry point reports it with the one message from basis.check_index
    with pytest.raises(ValueError, match=prefix + INVALID):
        call(table3)


def test_no_module_level_caches():
    # memos live on the objects that own them (a table, a spec) and are freed
    # with them; a module-level cache would keep every rank it ever saw
    import osglines
    modules = [osglines] + [importlib.import_module(f"osglines.{m.name}")
                            for m in pkgutil.iter_modules(osglines.__path__)]
    cached = [f"{mod.__name__}.{name}" for mod in modules
              for name, obj in vars(mod).items() if hasattr(obj, "cache_info")]
    assert cached == []
