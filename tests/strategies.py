"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from squarestable.graphs import Graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return Graph.from_edges(n, edges)


@st.composite
def graphs_with_pendants(draw, max_n: int = 7, max_pendants: int = 5):
    """A graph with pendant vertices hung on some of its vertices, so that
    degree-one folding has work to do."""
    g = draw(graphs(max_n=max_n))
    hosts = draw(st.lists(st.integers(0, g.n - 1), max_size=max_pendants)) if g.n else []
    edges = list(g.edges()) + [(v, g.n + i) for i, v in enumerate(hosts)]
    return Graph.from_edges(g.n + len(hosts), edges)


@st.composite
def sparse_graphs(draw, max_n: int = 14, max_extra: int = 3):
    """A random forest, relabelled, plus at most ``max_extra`` more edges:
    uniform edge masks almost never give a long shortest cycle or several
    components above 7 vertices, and these graphs often do."""
    n = draw(st.integers(0, max_n))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        # v hangs from one of the last few vertices, which keeps the trees
        # deep, or starts a new tree
        if draw(st.integers(0, 7)):
            edges.append((label[max(0, v - draw(st.integers(1, 3)))], label[v]))
    for _ in range(draw(st.integers(0, max_extra)) if n > 1 else 0):
        u, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        edges.append((u, w + (w >= u)))
    return Graph.from_edges(n, edges)


@st.composite
def chordal_graphs(draw, max_n: int = 14):
    """A chordal graph, relabelled, sometimes plus one more edge: uniform
    edge masks are almost never chordal above 7 vertices.  Each new vertex
    joins a clique of the earlier ones: a drawn part of an earlier vertex's
    closed neighbourhood, each member kept only while the part stays a
    clique.  The extra edge joins the last vertex to an earlier one and may
    close a chordless cycle, so both answers occur."""
    n = draw(st.integers(0, max_n))
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        # u is left out now and then, which starts a new component when
        # the part is empty
        u = draw(st.integers(0, v - 1))
        clique = {u} if draw(st.integers(0, 7)) else set()
        for w in sorted(nbrs[u]):
            if draw(st.booleans()) and clique <= nbrs[w]:
                clique.add(w)
        for w in clique:
            nbrs[w].add(v)
            nbrs[v].add(w)
    if n > 2 and draw(st.booleans()):
        u = draw(st.integers(0, n - 2))
        nbrs[u].add(n - 1)
        nbrs[n - 1].add(u)
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[v], label[w]) for v in range(n) for w in nbrs[v]])
