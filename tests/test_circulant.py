import numpy as np
import pytest

from ohmwalk.circulant import (
    CirculantGraph,
    complete_graph,
    complete_minus_opposite,
    cycle_graph,
)


def test_cycle_is_jump_one():
    g = cycle_graph(5)
    assert g.jumps == (1,)
    assert g.degree == 2
    assert g.edge_count == 5


def test_complete_graph_odd():
    g = complete_graph(7)
    assert g.jumps == (1, 2, 3)
    assert g.degree == 6
    assert g.edge_count == 21


def test_disconnected_rejected():
    # C_6(2) splits into two triangles
    with pytest.raises(ValueError):
        CirculantGraph(6, (2,))


def test_jump_out_of_range_rejected():
    with pytest.raises(ValueError):
        CirculantGraph(7, (4,))
    with pytest.raises(ValueError):
        CirculantGraph(7, (0,))
    with pytest.raises(ValueError):
        CirculantGraph(7, ())


def test_minus_opposite_family():
    g = complete_minus_opposite(7)
    assert g.jumps == (1, 2)
    assert g.degree == 4
    assert g.edge_count == 14
    assert complete_minus_opposite(5).jumps == (1,)
    with pytest.raises(ValueError):
        complete_minus_opposite(6)
    with pytest.raises(ValueError):
        complete_minus_opposite(3)


def test_stats_match_enumeration():
    g = CirculantGraph(9, (1, 2, 3))
    assert g.degree == 6
    assert g.edge_count == 27
    pairs = {(min(v, w), max(v, w)) for v in range(9) for w in g.neighbors(v)}
    assert len(pairs) == 27


def test_neighbors_symmetric_no_self_loops():
    for g in (cycle_graph(8), CirculantGraph(9, (2, 4)), complete_minus_opposite(11)):
        for v in range(g.n):
            nbrs = g.neighbors(v)
            assert v not in nbrs
            assert len(set(nbrs)) == g.degree
            for w in nbrs:
                assert v in g.neighbors(w)


def test_even_n_half_jump_degree():
    g = complete_graph(6)  # jump 3 contributes a single neighbor
    assert g.degree == 5
    assert g.edge_count == 15


def test_edge_count_for_odd_n():
    for n, jumps in ((7, (1, 2)), (9, (1, 4)), (15, (1, 2, 4))):
        g = CirculantGraph(n, jumps)
        assert g.edge_count == n * len(jumps)


class TestLaplacian:
    def test_cycle_matches_tridiagonal_pattern(self):
        lap = cycle_graph(5).laplacian_dense()
        assert np.array_equal(np.diag(lap), np.full(5, 2))
        for i in range(5):
            assert lap[i, (i + 1) % 5] == -1
            assert lap[i, (i - 1) % 5] == -1

    def test_family_diagonal(self):
        lap = complete_minus_opposite(7).laplacian_dense()
        assert np.array_equal(np.diag(lap), np.full(7, 4))

    def test_rows_sum_to_zero_and_symmetric(self):
        for g in (cycle_graph(6), complete_minus_opposite(9), CirculantGraph(10, (1, 5))):
            lap = g.laplacian_dense()
            assert lap.sum(axis=1).tolist() == [0] * g.n
            assert np.array_equal(lap, lap.T)
            off = lap[~np.eye(g.n, dtype=bool)]
            assert set(np.unique(off)) <= {-1, 0}

    def test_circulant_shift_property(self):
        g = complete_minus_opposite(9)
        lap = g.laplacian_dense()
        for i in range(g.n):
            assert np.array_equal(lap[i], np.roll(lap[0], i))


def loop_laplacian(g):
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for i in range(g.n):
        lap[i, i] = g.degree
        for w in g.neighbors(i):
            lap[i, w] = -1
    return lap


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(7),
        CirculantGraph(12, (1, 3, 4)),
        CirculantGraph(12, (1, 4, 6)),  # jump n/2: one neighbor, degree 5
        complete_minus_opposite(2047),
    ],
    ids=["cycle-7", "C12-1-3-4", "C12-1-4-6", "minus-opposite-2047"],
)
def test_laplacian_equals_loop_reference(g):
    lap = g.laplacian_dense()
    assert lap.dtype == np.int64
    assert np.array_equal(lap, loop_laplacian(g))
