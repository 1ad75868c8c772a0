import pytest
from hypothesis import given, strategies as st

from wfcolor import model
from wfcolor.analysis import local_maxima, local_minima
from wfcolor.model import (
    ColoringInfeasible,
    Graph,
    IdAssignment,
    TopologyError,
    cycle,
    explicit_ids,
    from_edges,
    monotone_chain_ids,
    parse_edge_list,
    parse_id_list,
    proper_coloring_ids,
    random_connected_graph,
    random_unique_ids,
)


def test_cycle_triangle():
    g = cycle(3)
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))
    assert g.is_cycle


def test_cycle_four_skips_opposite():
    g = cycle(4)
    assert g.adjacency[0] == (1, 3)
    assert 2 not in g.adjacency[0]


def test_cycle_too_small():
    with pytest.raises(TopologyError):
        cycle(2)


def test_graph_rejects_self_loop():
    with pytest.raises(TopologyError):
        Graph(2, ((0, 1), (0,)))


def test_graph_rejects_asymmetry():
    with pytest.raises(TopologyError):
        Graph(3, ((1,), (0, 2), ()))


def test_graph_rejects_disconnected():
    with pytest.raises(TopologyError):
        from_edges(4, [(0, 1), (2, 3)])


def test_random_unique_ids_deterministic():
    g = cycle(5)
    first = random_unique_ids(g, 27, seed=3)
    second = random_unique_ids(g, 27, seed=3)
    assert first == second
    assert random_unique_ids(g, 27, seed=4) != first


def test_random_unique_ids_injective_in_range():
    g = cycle(3)
    ids = random_unique_ids(g, 27, seed=9)
    assert len(set(ids.ids)) == 3
    assert all(0 <= v < 27 for v in ids.ids)


def test_random_unique_ids_tight_bound_is_permutation():
    g = cycle(6)
    ids = random_unique_ids(g, 6, seed=0)
    assert sorted(ids.ids) == list(range(6))


def test_random_unique_ids_bound_too_small():
    with pytest.raises(ValueError):
        random_unique_ids(cycle(4), 3, seed=0)


def test_random_unique_ids_default_bound_poly():
    g = cycle(10)
    ids = random_unique_ids(g, seed=1)
    assert all(v < 1000 for v in ids.ids)


def test_monotone_chain_shape():
    ids = monotone_chain_ids(5)
    assert ids.ids == (0, 1, 2, 3, 4)
    assert ids.kind == model.UNIQUE
    g = cycle(5)
    assert local_maxima(ids, g) == {4}
    assert local_minima(ids, g) == {0}


@given(st.integers(min_value=3, max_value=40))
def test_monotone_chain_single_extrema(n):
    ids = monotone_chain_ids(n)
    g = cycle(n)
    assert len(local_maxima(ids, g)) == 1
    assert len(local_minima(ids, g)) == 1


def test_proper_two_coloring_even_ring():
    g = cycle(6)
    ids = proper_coloring_ids(g, 2, seed=0)
    assert set(ids.ids) <= {0, 1}
    ids.validate_for(g)


def test_proper_two_coloring_odd_ring_infeasible():
    with pytest.raises(ColoringInfeasible):
        proper_coloring_ids(cycle(3), 2, seed=0)


def test_proper_coloring_cycle_nine():
    g = cycle(9)
    ids = proper_coloring_ids(g, 3, seed=5)
    for p, q in g.edges():
        assert ids.ids[p] != ids.ids[q]
    assert ids.kind == model.PROPER


def test_proper_coloring_deterministic():
    g = cycle(8)
    assert proper_coloring_ids(g, 3, seed=2) == proper_coloring_ids(g, 3, seed=2)


def test_proper_coloring_general_graph():
    g = random_connected_graph(20, 4, seed=7)
    ids = proper_coloring_ids(g, g.max_degree + 1, seed=1)
    ids.validate_for(g)


# an 8-cycle whose ring order is not 0, 1, ..., 7, and the complete bipartite K3,3
RELABELED_C8 = [(0, 3), (3, 1), (1, 5), (5, 2), (2, 7), (7, 4), (4, 6), (6, 0)]
K33 = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]


@pytest.mark.parametrize("n, edges", [(8, RELABELED_C8), (6, K33)])
def test_proper_two_coloring_of_bipartite_graphs(n, edges):
    g = from_edges(n, edges)
    for seed in range(50):
        ids = proper_coloring_ids(g, 2, seed=seed)
        assert all(ids.ids[p] != ids.ids[q] for p, q in g.edges()), seed


def test_proper_two_coloring_relabeled_odd_cycle_infeasible():
    g = from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    with pytest.raises(ColoringInfeasible, match="stuck at node"):
        proper_coloring_ids(g, 2, seed=0)


def test_depth_first_order_takes_the_smallest_neighbor_first():
    assert cycle(6).depth_first_order() == [0, 1, 2, 3, 4, 5]
    assert from_edges(8, RELABELED_C8).depth_first_order() == [0, 3, 1, 5, 2, 7, 4, 6]


def test_explicit_ids_kind_inference():
    g = cycle(4)
    assert explicit_ids(g, [4, 7, 1, 9]).kind == model.UNIQUE
    assert explicit_ids(g, [0, 1, 0, 1]).kind == model.PROPER


def test_explicit_ids_rejects_adjacent_duplicates():
    with pytest.raises(ValueError):
        explicit_ids(cycle(3), [1, 1, 2])


def test_id_assignment_unique_rejects_duplicates():
    with pytest.raises(ValueError):
        IdAssignment((1, 1, 2), model.UNIQUE)


def test_edge_list_parse():
    g = parse_edge_list(["# a triangle", "0 1", "1 2  # wraps", "0 2", ""])
    assert g.adjacency == cycle(3).adjacency


def test_id_file_parse():
    g = cycle(3)
    ids = parse_id_list(["0 5", "1 1", "2 9"], g)
    assert ids.ids == (5, 1, 9)
    with pytest.raises(ValueError):
        parse_id_list(["0 5", "1 1"], g)


@given(st.integers(min_value=4, max_value=40), st.integers(min_value=3, max_value=5),
       st.integers(min_value=0, max_value=20))
def test_random_connected_graph_properties(n, delta, seed):
    g = random_connected_graph(n, delta, seed)
    assert g.max_degree <= delta
    assert g.node_count == n
    assert random_connected_graph(n, delta, seed).adjacency == g.adjacency
