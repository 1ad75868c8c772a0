import pytest
from hypothesis import given, strategies as st

from wfcolor import model
from wfcolor.analysis import monotone_distances
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
    distances = monotone_distances(ids, cycle(5))
    assert [p for p, (up, _) in distances.items() if up == 0] == [4]
    assert [p for p, (_, down) in distances.items() if down == 0] == [0]


@given(st.integers(min_value=3, max_value=40))
def test_monotone_chain_single_extrema(n):
    ids = monotone_chain_ids(n)
    distances = monotone_distances(ids, cycle(n)).values()
    assert sum(up == 0 for up, _ in distances) == 1
    assert sum(down == 0 for _, down in distances) == 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: from_edges(3, [(0, 1), (0, 3)]), TopologyError, "edge 0-3 out of range for 3 nodes"),
    (lambda: parse_edge_list(["# no edge", ""]), TopologyError, "edge list is empty"),
    (lambda: random_connected_graph(1, 3, 0), TopologyError, "need at least 2 nodes"),
    (lambda: random_connected_graph(5, 1, 0), TopologyError, "max_degree must be at least 2"),
    (lambda: monotone_chain_ids(2), TopologyError, "a cycle needs at least 3 nodes, got 2"),
    (lambda: proper_coloring_ids(cycle(4), 1), ColoringInfeasible, "at least 2 colors are needed"),
    (lambda: parse_id_list(["0 5", "1 1", "0 9"], cycle(3)), ValueError,
     "line 3: node 0 assigned twice"),
], ids=["edge-out-of-range", "empty-edge-list", "one-node-graph", "degree-1-graph",
        "two-node-chain", "one-color", "node-assigned-twice"])
def test_constructors_name_what_they_refuse(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


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


# --- Graph validation against its per-node rules -------------------------------

def _per_node_rules(n, adjacency):
    """The message of the first rule a Graph(n, adjacency) breaks, or None:
    the checks node by node, each node's in the order range, self-loop,
    order, symmetry, and connectivity last."""
    if n < 1 or len(adjacency) != n:
        return "adjacency must list every node exactly once"
    for p, nbrs in enumerate(adjacency):
        if any(q < 0 or q >= n for q in nbrs):
            return f"node {p} has an out-of-range neighbor"
        if p in nbrs:
            return f"self-loop at node {p}"
        if list(nbrs) != sorted(set(nbrs)):
            return f"adjacency of node {p} must be sorted and duplicate-free"
        for q in nbrs:
            if p not in adjacency[q]:
                return f"edge {p}-{q} is not symmetric"
    seen, stack = {0}, [0]
    while stack:
        for q in adjacency[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return None if len(seen) == n else "graph must be connected"


@st.composite
def adjacencies(draw):
    """A node count and an adjacency: a random simple graph (often
    disconnected), then up to three edits that each break one rule."""
    n = draw(st.integers(1, 7))
    nodes = st.integers(0, n - 1)
    nbrs = [set() for _ in range(n)]
    for u, v in draw(st.lists(st.tuples(nodes, nodes), max_size=2 * n)):
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    adjacency = [sorted(s) for s in nbrs]
    for _ in range(draw(st.integers(0, 3))):
        p = draw(nodes)
        row = adjacency[p]
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["range", "self-loop", "unsorted", "duplicate", "asymmetric"]))
        if edit == "range":
            row.insert(at, draw(st.sampled_from([-2, -1, n, n + 1])))
        elif edit == "self-loop":
            row.insert(at, p)
        elif edit == "unsorted":
            row.reverse()
        elif row and edit == "duplicate":
            row.insert(at, row[min(at, len(row) - 1)])
        elif row:
            row.pop(min(at, len(row) - 1))
    count = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    return count, tuple(map(tuple, adjacency))


@given(adjacencies())
def test_graph_accepts_and_rejects_as_its_per_node_rules(case):
    n, adjacency = case
    expected = _per_node_rules(n, adjacency)
    if expected is None:
        assert Graph(n, adjacency).adjacency == adjacency
    else:
        with pytest.raises(TopologyError) as excinfo:
            Graph(n, adjacency)
        assert str(excinfo.value) == expected


def test_cycle_adjacency_is_the_sorted_ring_neighbors():
    for n in range(3, 201):
        assert cycle(n).adjacency == tuple(
            tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n)
        ), n


@pytest.mark.parametrize("n", [3, 4, 300])
def test_a_cycles_nodes_are_the_ints_its_adjacency_holds(n):
    # from 257 on CPython makes a fresh int object for each computed value
    g = cycle(n)
    assert g.nodes == tuple(range(n)) and g.nodes is g.nodes
    for p, nbrs in enumerate(g.adjacency):
        assert all(q is g.nodes[q] for q in nbrs), p


def test_a_graphs_nodes_are_its_labels_built_once():
    g = from_edges(300, ((p, p + 1) for p in range(299)))
    assert g.nodes == tuple(range(300)) and g.nodes is g.nodes


def test_is_cycle_and_max_degree():
    assert cycle(5).is_cycle and cycle(5).max_degree == 2
    path = from_edges(3, [(0, 1), (1, 2)])
    assert not path.is_cycle and path.max_degree == 2
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not star.is_cycle and star.max_degree == 3


@given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=30),
       st.data())
def test_validate_for_names_the_first_shared_edge_in_edges_order(n, seed, data):
    g = random_connected_graph(n, 3, seed)
    values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ids = IdAssignment(tuple(values), model.PROPER)
    clash = next(((p, q) for p, q in g.edges() if values[p] == values[q]), None)
    if clash is None:
        ids.validate_for(g)
    else:
        p, q = clash
        with pytest.raises(ValueError) as excinfo:
            ids.validate_for(g)
        assert str(excinfo.value) == f"adjacent nodes {p},{q} share identifier {values[p]}"


def test_id_assignment_rejects_negative_ids():
    with pytest.raises(ValueError, match="identifiers must be naturals"):
        IdAssignment((3, -1, 2), model.PROPER)
    assert IdAssignment((), model.UNIQUE).ids == ()


@pytest.mark.parametrize("first", [True, 1.5])
def test_id_assignment_rejects_ids_that_are_not_ints(first):
    # a run would write True or 1.5 into its trace, which read_trace refuses
    with pytest.raises(ValueError, match=f"identifier {first!r} is not an int"):
        explicit_ids(cycle(3), [first, 2, 3])
