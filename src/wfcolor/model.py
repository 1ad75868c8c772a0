"""Graph topologies and input-identifier assignments.

Cycles are the primary topology; bounded-degree general graphs are supported
for the two-sided coloring protocol that runs on them. Identifier assignments
come in two kinds: globally unique values, or values that merely form a proper
coloring (duplicates allowed on non-adjacent nodes).
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

UNIQUE = "unique"
PROPER = "proper-coloring"

ID_KINDS = (UNIQUE, PROPER)


class TopologyError(ValueError):
    """The requested graph shape is invalid or unsupported."""


class ColoringInfeasible(ValueError):
    """No proper coloring with the requested number of colors exists."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph as a sorted adjacency structure."""

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.node_count
        adjacency = self.adjacency
        if n < 1 or len(adjacency) != n:
            raise TopologyError("adjacency must list every node exactly once")
        # One pass over the arcs: neighbors strictly increasing, in range, not
        # p itself, and p among each neighbor's neighbors.
        for p, nbrs in enumerate(adjacency):
            last = -1
            for q in nbrs:
                if not last < q < n or q == p or p not in adjacency[q]:
                    self._reject(p)
                last = q
        if len(self.depth_first_order()) != n:
            raise TopologyError("graph must be connected")

    def _reject(self, p: int) -> None:
        """Raise the error that names what is wrong with node p's adjacency,
        checking range, self-loop, order and symmetry in that order."""
        n = self.node_count
        nbrs = self.adjacency[p]
        if any(q < 0 or q >= n for q in nbrs):
            raise TopologyError(f"node {p} has an out-of-range neighbor")
        if p in nbrs:
            raise TopologyError(f"self-loop at node {p}")
        if list(nbrs) != sorted(set(nbrs)):
            raise TopologyError(f"adjacency of node {p} must be sorted and duplicate-free")
        for q in nbrs:
            if p not in self.adjacency[q]:
                raise TopologyError(f"edge {p}-{q} is not symmetric")

    def depth_first_order(self) -> list[int]:
        """The nodes reachable from node 0 in depth-first preorder, smallest
        neighbor first."""
        seen = [False] * self.node_count
        order = []
        stack = [0]
        while stack:
            p = stack.pop()
            if not seen[p]:
                seen[p] = True
                order.append(p)
                stack.extend(reversed(self.adjacency[p]))
        return order

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        """The node labels 0..n-1, one int object per node, built on first
        read and kept in the graph. A run takes the keys of its returns and
        activation counts from here, so its dicts share the graph's n ints
        instead of each allocating its own: CPython makes a fresh 28-byte
        int for every computed value from 257 on, about 2.8 MB per dict on
        10^5 nodes. `cycle` seeds it with the ints its adjacency tuples
        hold."""
        return tuple(range(self.node_count))

    @cached_property
    def is_cycle(self) -> bool:
        return self.node_count >= 3 and set(map(len, self.adjacency)) == {2}

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency))

    def edges(self) -> list[tuple[int, int]]:
        return [(p, q) for p in range(self.node_count) for q in self.adjacency[p] if p < q]


def cycle(n: int) -> Graph:
    """The ring on n >= 3 nodes; node i is adjacent to (i +/- 1) mod n."""
    if n < 3:
        raise TopologyError(f"a cycle needs at least 3 nodes, got {n}")
    ring = tuple(range(n))  # one int object per node, shared by its two neighbors' tuples
    graph = Graph(n, ((ring[1], ring[-1]), *zip(ring[:-2], ring[2:]), (ring[0], ring[-2])))
    graph.__dict__["nodes"] = ring  # as cached_property keeps it: the same ints
    return graph


def from_edges(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an undirected edge list."""
    nbrs: list[set[int]] = [set() for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise TopologyError(f"edge {u}-{v} out of range for {node_count} nodes")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(node_count, tuple(tuple(sorted(s)) for s in nbrs))


def parse_edge_list(lines: Iterable[str]) -> Graph:
    """Parse the 'u v' per line edge-list format; '#' starts a comment."""
    edges = []
    top = -1
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            u, v = (int(part) for part in parts)
        except ValueError:
            raise TopologyError(f"line {lineno}: expected 'u v', got {raw.strip()!r}") from None
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise TopologyError("edge list is empty")
    return from_edges(top + 1, edges)


def open_text(path: str, what: str) -> io.StringIO:
    """A UTF-8 text file, read whole, its newlines translated as open()
    translates them. A byte that is not UTF-8 raises a ValueError that names
    the file (as what and path) and the 1-based line that holds it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lines = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
        raise ValueError(f"{what} {path} line {len(lines)}: 'utf-8' codec can't decode byte "
                         f"0x{data[exc.start]:02x} in position {len(lines[-1])}: "
                         f"{exc.reason}") from None
    return io.StringIO(text, newline=None)


def load_edge_list(path: str) -> Graph:
    with open_text(path, "edge-list file") as fh:
        try:
            return parse_edge_list(fh)
        except TopologyError as exc:
            raise TopologyError(f"edge-list file {path}: {exc}") from None


def random_connected_graph(n: int, max_degree: int, seed: int) -> Graph:
    """Seeded random connected graph with every degree <= max_degree.

    Grows a random tree under the degree cap, then adds extra edges by
    rejection until no capacity is left or an attempt budget runs out.
    """
    if n < 2:
        raise TopologyError("need at least 2 nodes")
    if max_degree < 2:
        raise TopologyError("max_degree must be at least 2")
    rng = random.Random(f"graph:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    degree = [0] * n
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        # never empty: order[i - 1], added last, has degree at most 1 < max_degree
        candidates = [p for p in order[:i] if degree[p] < max_degree]
        u, v = order[i], rng.choice(candidates)
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1
    for _ in range(4 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
    return from_edges(n, sorted(edges))


@dataclass(frozen=True)
class IdAssignment:
    """Per-node input identifiers, tagged with the guarantee they carry."""

    ids: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ID_KINDS:
            raise ValueError(f"unknown id kind {self.kind!r}")
        if list(map(type, self.ids)).count(int) != len(self.ids):  # no bool, float or numpy int
            odd = next(x for x in self.ids if type(x) is not int)
            raise ValueError(f"identifier {odd!r} is not an int")
        if min(self.ids, default=0) < 0:
            raise ValueError("identifiers must be naturals")
        if self.kind == UNIQUE and len(set(self.ids)) != len(self.ids):
            raise ValueError("unique id assignment has duplicate values")

    def validate_for(self, g: Graph) -> None:
        """Check the kind's invariant against a concrete graph."""
        if len(self.ids) != g.node_count:
            raise ValueError(
                f"assignment covers {len(self.ids)} nodes, graph has {g.node_count}"
            )
        if self.kind == UNIQUE:  # distinct values differ on every edge
            return
        ids = self.ids
        for p, nbrs in enumerate(g.adjacency):
            x = ids[p]
            for q in nbrs:
                if q > p and ids[q] == x:
                    raise ValueError(f"adjacent nodes {p},{q} share identifier {x}")


def explicit_ids(g: Graph, values: Sequence[int]) -> IdAssignment:
    """Wrap explicit values: kind unique when no two are equal, else proper."""
    vals = tuple(values)
    ids = IdAssignment(vals, UNIQUE if len(set(vals)) == len(vals) else PROPER)
    ids.validate_for(g)
    return ids


def random_unique_ids(g: Graph, bound: int | None = None, seed: int = 0) -> IdAssignment:
    """Uniformly sampled injective assignment into [0, bound).

    The default bound n**3 keeps identifiers polynomial in the system size
    while leaving room for the reduction function to act on realistic
    bit-lengths.
    """
    n = g.node_count
    if bound is None:
        bound = n**3
    if bound < n:
        raise ValueError(f"range [0,{bound}) too small for {n} distinct ids")
    rng = random.Random(f"ids:{seed}")
    ids = IdAssignment(tuple(rng.sample(range(bound), n)), UNIQUE)
    ids.validate_for(g)
    return ids


def monotone_chain_ids(n: int) -> IdAssignment:
    """ids(i) = i around the ring: one local minimum, one local maximum, and a
    single monotone chain of length n-1 (the adversarial input for the
    linear-time protocols)."""
    if n < 3:
        raise TopologyError(f"a cycle needs at least 3 nodes, got {n}")
    return IdAssignment(tuple(range(n)), UNIQUE)


def proper_coloring_ids(g: Graph, k: int, seed: int = 0) -> IdAssignment:
    """Seeded proper coloring of g with values in [0, k).

    Greedy over g.depth_first_order(): each node draws uniformly from the
    values its colored neighbors leave free, and ColoringInfeasible names the
    first node left with none. With k = 2 every draw after the first is
    forced, so any bipartite graph is colored; k > max_degree always
    succeeds. A ring-ordered cycle is colored in the order 0, 1, ..., n - 1.
    """
    if k < 2:
        raise ColoringInfeasible("at least 2 colors are needed")
    rng = random.Random(f"proper:{seed}")
    values: list[int | None] = [None] * g.node_count
    for p in g.depth_first_order():
        banned = {values[q] for q in g.adjacency[p]}
        free = [c for c in range(k) if c not in banned]
        if not free:
            raise ColoringInfeasible(f"greedy coloring stuck at node {p} with {k} colors")
        values[p] = rng.choice(free)
    ids = IdAssignment(tuple(values), PROPER)
    ids.validate_for(g)
    return ids


def parse_id_list(lines: Iterable[str], g: Graph) -> IdAssignment:
    """Parse the 'node id' per line format; '#' starts a comment."""
    values: dict[int, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            node, value = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'node id', got {raw.strip()!r}") from None
        if node in values:
            raise ValueError(f"line {lineno}: node {node} assigned twice")
        values[node] = value
    if sorted(values) != list(range(g.node_count)):
        raise ValueError("id file must assign every node exactly once")
    return explicit_ids(g, [values[p] for p in range(g.node_count)])


def load_ids(path: str, g: Graph) -> IdAssignment:
    with open_text(path, "id file") as fh:
        try:
            return parse_id_list(fh, g)
        except ValueError as exc:
            raise ValueError(f"id file {path}: {exc}") from None
