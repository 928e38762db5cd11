import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from parlorproofs import graphs
from parlorproofs.graphs import (DegenerateGraphError, DuplicateEdgeError,
                                 Edge, EulerianStatus, GraphFormatError,
                                 Multigraph, Trail,
                                 UnknownVertexError, degree_map,
                                 eulerian_status, find_trail,
                                 impossibility_proof, odd_vertices,
                                 parse_graph, status_and_odd_vertices)
from parlorproofs.proofdoc import StepKind

from fixtures import cat_and_mouse_graph, fixture_text, konigsberg_graph
from independent import (edge_components, lowest_id_trail,
                         trail_exists_backtracking)


def graph_from_edges(pairs, extra_vertices=()):
    """A Multigraph with one edge per (u, v) pair, ids from 1 in order."""
    edges = tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs, start=1))
    vertices = {w for pair in pairs for w in pair} | set(extra_vertices)
    return Multigraph(frozenset(vertices), edges)


def walk_text(rng, n_edges):
    """Graph text of a random walk of n_edges over n_edges // 4 names."""
    names = [f"r{i}" for i in range(n_edges // 4)]
    steps = rng.choices(names, k=n_edges)
    lines = [f"vertex {name}" for name in names]
    lines += [f"edge {u} {v}" for u, v in zip([names[0]] + steps, steps)]
    return "\n".join(lines) + "\n"


def cycle4():
    return graph_from_edges([("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def path2():
    return graph_from_edges([("A", "B"), ("B", "C")])


def two_triangles():
    return graph_from_edges([("A", "B"), ("B", "C"), ("C", "A"),
                             ("D", "E"), ("E", "F"), ("F", "D")])


class TestParseGraph:
    def test_konigsberg_fixture(self):
        g = konigsberg_graph()
        assert len(g.vertices) == 4
        assert g.edge_count == 7
        assert sorted(degree_map(g).values()) == [3, 3, 3, 5]

    def test_single_edge(self):
        g = parse_graph("vertex A\nvertex B\nedge A B\n")
        assert degree_map(g) == {"A": 1, "B": 1}

    def test_outside_is_implicit(self):
        g = parse_graph("vertex room\nedge room outside door\n")
        assert "outside" in g.vertices

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a map\n\nvertex A  # the island\nvertex B\nedge A B\n")
        assert g.edge_count == 1

    def test_edge_labels_preserved(self):
        g = parse_graph("vertex A\nvertex B\nedge A B bridge1\n")
        assert g.edges[0].label == "bridge1"

    def test_undeclared_vertex_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("vertex A\nedge A Z\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("vertex A\nvertex B\nedge A\n")

    def test_unknown_directive(self):
        with pytest.raises(GraphFormatError, match="node"):
            parse_graph("node A\n")

    # A name is checked on its vertex line; an edge may name only declared
    # vertices and `outside`, so a malformed name there is undeclared.
    @pytest.mark.parametrize("text, message", [
        ("vertex\n", "line 1: expected 'vertex <name>'"),
        ("vertex A B\n", "line 1: expected 'vertex <name>'"),
        ("vertex A\nvertex B-C\n", "line 2: bad vertex name 'B-C'"),
        ("vertex _\n", "line 1: bad vertex name '_'"),
        ("vertex A\nedge A B-C\n",
         "line 2: edge references undeclared vertex 'B-C'"),
        ("vertex A\nedge X Y\n",
         "line 2: edge references undeclared vertex 'X'"),
        ("vertex A\nedge outside X\n",
         "line 2: edge references undeclared vertex 'X'"),
        ("VERTEX A\nEdge A Z\n",
         "line 2: edge references undeclared vertex 'Z'"),
        ("edge A B\nvertex A\nvertex B\n",
         "line 1: edge references undeclared vertex 'A'"),
    ], ids=["vertex-no-name", "vertex-two-names", "bad-name", "underscore",
            "bad-name-on-edge", "both-ends-undeclared",
            "outside-then-undeclared", "keywords-in-any-case",
            "edge-before-its-vertices"])
    def test_refusals_name_their_line(self, text, message):
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("text, vertices, edges", [
        ("vertex X\nedge X outside\n", {"X", "outside"},
         (Edge(1, "X", "outside"),)),
        ("VERTEX A\nVertex B\nEDGE A B\neDgE B A door\n", {"A", "B"},
         (Edge(1, "A", "B"), Edge(2, "B", "A", "door"))),
        ("vertex outside\nvertex A\nedge A outside\n", {"A", "outside"},
         (Edge(1, "A", "outside"),)),
        ("vertex A\nedge outside A\nvertex outside\nedge A outside\n",
         {"A", "outside"}, (Edge(1, "outside", "A"), Edge(2, "A", "outside"))),
        ("vertex A\nvertex B\nvertex A\nedge A B\n", {"A", "B"},
         (Edge(1, "A", "B"),)),
    ], ids=["declared-then-outside", "keywords-in-any-case",
            "outside-declared", "outside-used-then-declared",
            "declared-twice"])
    def test_accepted_edge_lines(self, text, vertices, edges):
        g = parse_graph(text)
        assert g.vertices == vertices
        assert g.edges == edges
        assert all(type(edge) is Edge for edge in g.edges)

    # A parsed graph holds each vertex name once: every edge end, and so
    # every trail step, is the string of the graph's vertex of that name.
    @pytest.mark.parametrize("text", [
        fixture_text("konigsberg.graph"), fixture_text("cat_and_mouse.graph"),
        walk_text(random.Random(24), 2000),
        "vertex A\nedge outside A\nvertex outside\nedge A outside\n",
        "vertex hall\nvertex den\nedge hall den\nvertex hall\n"
        "vertex den\nedge den hall\n",
    ], ids=["konigsberg", "cat-and-mouse", "walk", "outside",
            "declared-twice"])
    def test_edges_share_the_vertex_names(self, text):
        g = parse_graph(text)
        vertex = {v: v for v in g.vertices}
        ends = [end for edge in g.edges for end in (edge.u, edge.v)]
        trail = find_trail(g)
        if isinstance(trail, Trail):
            ends += [end for step in trail.steps for end in step[1:]]
        assert all(end is vertex[end] for end in ends)

    def test_parsed_graph_bytes_per_edge(self):
        # A 4,000-edge walk graph of 1,000 names: ~139 bytes an edge when
        # edges share the names, ~245 when each end holds its own string.
        text = walk_text(random.Random(4000), 4000)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = parse_graph(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert g.edge_count == 4000
        assert held / g.edge_count < 180

    def test_empty_edge_list_parses(self):
        g = parse_graph("vertex A\nvertex B\n")
        assert g.edge_count == 0
        with pytest.raises(DegenerateGraphError):
            eulerian_status(g)


class TestDegreeMap:
    def test_four_cycle(self):
        assert set(degree_map(cycle4()).values()) == {2}

    def test_isolated_vertex(self):
        g = graph_from_edges([("A", "B")], extra_vertices=["Z"])
        assert degree_map(g)["Z"] == 0

    def test_self_loop_counts_twice(self):
        g = graph_from_edges([("A", "A"), ("A", "B")])
        assert degree_map(g)["A"] == 3

    def test_handshake_lemma_fixture(self):
        g = cat_and_mouse_graph()
        assert sum(degree_map(g).values()) == 2 * g.edge_count


class TestEulerianStatus:
    def test_konigsberg_has_no_trail(self):
        assert eulerian_status(konigsberg_graph()) is EulerianStatus.NO_TRAIL
        assert len(odd_vertices(konigsberg_graph())) == 4

    def test_two_edge_path_is_open(self):
        assert eulerian_status(path2()) is EulerianStatus.OPEN_TRAIL

    def test_cycle_is_a_circuit(self):
        assert eulerian_status(cycle4()) is EulerianStatus.CIRCUIT

    def test_disconnected_edges(self):
        g = graph_from_edges([("A", "B"), ("C", "D")])
        assert eulerian_status(g) is EulerianStatus.DISCONNECTED

    def test_isolated_vertices_are_ignored(self):
        g = graph_from_edges([("A", "B"), ("B", "A")], extra_vertices=["Z"])
        assert eulerian_status(g) is EulerianStatus.CIRCUIT


def assert_valid_trail(trail: Trail, g) -> None:
    assert sorted(step.edge_id for step in trail.steps) == \
        sorted(e.id for e in g.edges)
    by_id = {e.id: e for e in g.edges}
    current = trail.start
    for step in trail.steps:
        assert step.frm == current
        edge = by_id[step.edge_id]
        assert {step.frm, step.to} == ({edge.u, edge.v} if edge.u != edge.v
                                       else {edge.u})
        current = step.to
    assert current == trail.end


class TestFindTrail:
    def test_four_cycle_closed_trail(self):
        trail = find_trail(cycle4())
        assert isinstance(trail, Trail)
        assert_valid_trail(trail, cycle4())
        assert trail.start == trail.end

    def test_konigsberg_returns_negative_status(self):
        assert find_trail(konigsberg_graph()) is EulerianStatus.NO_TRAIL

    def test_open_trail_ends_at_odd_vertices(self):
        g = graph_from_edges([("A", "B"), ("B", "C"), ("C", "A"), ("A", "D")])
        trail = find_trail(g)
        assert isinstance(trail, Trail)
        assert {trail.start, trail.end} == set(odd_vertices(g))
        assert_valid_trail(trail, g)

    def test_deterministic(self):
        g = graph_from_edges([("A", "B"), ("A", "B"), ("A", "C"), ("B", "C")])
        first = find_trail(g)
        assert all(find_trail(g) == first for _ in range(5))

    # The walk takes the unused edge with the lowest id; an open trail starts
    # at the smallest-named odd vertex, a circuit at the smallest vertex that
    # has edges.
    @pytest.mark.parametrize("g, edge_ids, route", [
        (graph_from_edges([("A", "B"), ("A", "A"), ("B", "A"), ("B", "B"),
                           ("A", "B"), ("B", "C"), ("C", "A")]),
         (1, 3, 2, 5, 4, 6, 7), "A -> B -> A -> A -> B -> B -> C -> A"),
        (Multigraph(frozenset("ABC"), (Edge(3, "A", "B"), Edge(1, "B", "C"),
                                       Edge(2, "A", "C"), Edge(4, "A", "B"))),
         (2, 1, 3, 4), "A -> C -> B -> A -> B"),
        (graph_from_edges([("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"),
                           ("D", "B")]),
         (1, 3, 2, 5, 4), "B -> A -> C -> B -> D -> C"),
        (graph_from_edges([("C", "D"), ("D", "B"), ("B", "C"), ("D", "E"),
                           ("E", "D")], extra_vertices=["A"]),
         (2, 4, 5, 1, 3), "B -> D -> E -> D -> C -> B"),
    ], ids=["parallel-edges-and-loops", "ids-out-of-order",
            "open-at-smallest-odd", "circuit-at-smallest-with-edges"])
    def test_trail_rule(self, g, edge_ids, route):
        trail = find_trail(g)
        assert tuple(step.edge_id for step in trail.steps) == edge_ids
        assert trail.render_text() == route
        assert_valid_trail(trail, g)

    def test_self_loops_are_traversed(self):
        g = graph_from_edges([("A", "A"), ("A", "B"), ("B", "B"), ("B", "A")])
        trail = find_trail(g)
        assert isinstance(trail, Trail)
        assert_valid_trail(trail, g)

    def test_random_two_odd_graphs_end_at_the_odd_pair(self):
        rng = random.Random(7)
        found = 0
        while found < 50:
            g = random_multigraph(rng)
            if eulerian_status(g) is not EulerianStatus.OPEN_TRAIL:
                continue
            trail = find_trail(g)
            assert isinstance(trail, Trail)
            assert_valid_trail(trail, g)
            assert {trail.start, trail.end} == set(odd_vertices(g))
            found += 1


    # With at most two odd vertices the walk alone finds a disconnection:
    # it leaves an edge unused.
    @pytest.mark.parametrize("pairs", [
        [("A", "B"), ("B", "C"), ("C", "A"), ("D", "E"), ("E", "F"),
         ("F", "D")],
        [("D", "E"), ("E", "F"), ("A", "B"), ("B", "C"), ("C", "A")],
        [("A", "B"), ("B", "C"), ("C", "A"), ("Z", "Z")],
        [("A", "A"), ("B", "C"), ("C", "D"), ("D", "B")],
    ], ids=["two-circuits", "circuit-and-odd-path", "circuit-and-loop",
            "loop-at-the-start"])
    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["ids-in-order", "ids-shuffled"])
    def test_walk_detects_disconnection(self, pairs, shuffled):
        g = graph_from_edges(pairs)
        if shuffled:  # distinct ids with gaps, edges in another order
            rng = random.Random(len(pairs))
            ids = rng.sample(range(1, 3 * len(pairs)), len(pairs))
            edges = [Edge(i, u, v) for i, (u, v) in zip(ids, pairs)]
            g = g._replace(edges=tuple(rng.sample(edges, len(edges))))
        assert len(odd_vertices(g)) <= 2
        assert find_trail(g) is EulerianStatus.DISCONNECTED


# Each public graph call derives only the facts it needs, each at most
# once.  Degrees and components come from passes over the edges; only
# find_trail builds the incidence map that it walks, and it searches
# components, among the vertices of that map that hold edges, only when
# more than two vertices are odd, for a walk from the start covers every
# edge exactly when the edges are connected.
@pytest.mark.parametrize("g", [cycle4(), path2(), konigsberg_graph(),
                               two_triangles()],
                         ids=["circuit", "open-trail", "no-trail",
                              "disconnected"])
@pytest.mark.parametrize("solve", [eulerian_status, find_trail,
                                   impossibility_proof,
                                   status_and_odd_vertices, degree_map,
                                   odd_vertices])
def test_one_analysis_per_call(g, solve, monkeypatch):
    many_odd = len(odd_vertices(g)) > 2
    expected = {  # (_degrees, _edge_components, _incidence) calls
        degree_map: (1, 0, 0), odd_vertices: (1, 0, 0),
        eulerian_status: (1, 1, 0), status_and_odd_vertices: (1, 1, 0),
        impossibility_proof: (1, 1, 0),
        find_trail: (0, 1, 1) if many_odd else (0, 0, 1),
    }[solve]
    calls = {"_degrees": 0, "_edge_components": 0, "_incidence": 0}
    for name in calls:
        def counted(*args, _real=getattr(graphs, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(graphs, name, counted)
    solve(g)
    assert tuple(calls.values()) == expected


# A graph built in code may name, in an edge, a vertex it does not hold;
# every call that reads the edges refuses it, naming the edge and the vertex.
@pytest.mark.parametrize("solve", [degree_map, odd_vertices, eulerian_status,
                                   find_trail, impossibility_proof])
@pytest.mark.parametrize("edges, message", [
    ((Edge(1, "A", "B"),),
     "edge 1 joins 'B', which is not a vertex of the graph"),
    ((Edge(1, "A", "A"), Edge(7, "Z", "A")),
     "edge 7 joins 'Z', which is not a vertex of the graph"),
], ids=["second-end", "first-end"])
def test_edge_to_a_missing_vertex_is_refused(solve, edges, message):
    with pytest.raises(UnknownVertexError) as caught:
        solve(Multigraph(frozenset({"A"}), edges))
    assert str(caught.value) == message


# Two edges of one id would be walked as one edge; every call that reads
# the edges refuses them, naming the id, whether or not a trail could exist.
@pytest.mark.parametrize("solve", [degree_map, odd_vertices, eulerian_status,
                                   find_trail, impossibility_proof])
@pytest.mark.parametrize("edges, message", [
    ((Edge(1, "A", "B"), Edge(1, "B", "A"), Edge(2, "A", "B")),
     "2 edges have the id 1"),
    ((Edge(4, "A", "B"), Edge(2, "A", "C"), Edge(2, "A", "D")),
     "2 edges have the id 2"),
], ids=["open-trail", "no-trail"])
def test_two_edges_of_one_id_are_refused(solve, edges, message):
    with pytest.raises(DuplicateEdgeError) as caught:
        solve(Multigraph(frozenset("ABCD"), edges))
    assert str(caught.value) == message


def random_multigraph(rng, max_vertices=8, max_edges=16):
    names = [chr(ord("A") + i) for i in range(rng.randint(2, max_vertices))]
    n_edges = rng.randint(1, max_edges)
    edges = []
    for _ in range(n_edges):
        u = rng.choice(names)
        v = rng.choice(names) if rng.random() < 0.9 else u
        edges.append((u, v))
    return graph_from_edges(edges, extra_vertices=names)


class TestEulerEquivalence:
    def test_against_backtracking_search(self):
        rng = random.Random(20260824)
        checked = 0
        for _ in range(400):
            g = random_multigraph(rng, max_edges=10)
            result = find_trail(g)
            expected = trail_exists_backtracking([(e.u, e.v) for e in g.edges])
            assert isinstance(result, Trail) == expected
            if isinstance(result, Trail):
                assert_valid_trail(result, g)
            checked += 1
        assert checked == 400

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE")),
        min_size=1, max_size=12))
    def test_parity_properties(self, pairs):
        g = graph_from_edges(pairs)
        degrees = degree_map(g)
        assert sum(degrees.values()) == 2 * g.edge_count
        assert len(odd_vertices(g)) % 2 == 0
        result = find_trail(g)
        has_trail = isinstance(result, Trail)
        assert has_trail == (
            eulerian_status(g) in (EulerianStatus.CIRCUIT,
                                   EulerianStatus.OPEN_TRAIL))


@st.composite
def trail_graphs(draw):
    """Multigraphs with loops, parallel edges and isolated vertices: a walk,
    so that most have a trail, plus a few edges anywhere; ids run from 1 in
    order, or are distinct and shuffled, with the edges in any order."""
    names = st.sampled_from("ABCDEF")
    walk = draw(st.lists(names, min_size=2, max_size=12))
    pairs = list(zip(walk, walk[1:]))
    pairs += draw(st.lists(st.tuples(names, names), max_size=3))
    if draw(st.booleans()):
        ids = draw(st.permutations(range(1, 3 * len(pairs) + 1)))
        edges = [Edge(i, u, v) for i, (u, v) in zip(ids, pairs)]
        edges = draw(st.permutations(edges))
    else:
        edges = [Edge(i, u, v) for i, (u, v) in enumerate(pairs, start=1)]
    vertices = {w for pair in pairs for w in pair}
    vertices |= draw(st.sets(st.sampled_from("GHXYZ"), max_size=2))
    return Multigraph(frozenset(vertices), tuple(edges))


@settings(max_examples=300, deadline=None)
@given(trail_graphs())
def test_trails_equal_an_independent_hierholzer(g):
    expected = lowest_id_trail(g.vertices, [(e.id, e.u, e.v) for e in g.edges])
    trail = find_trail(g)
    if expected is None:
        assert isinstance(trail, EulerianStatus)
        return
    assert [tuple(step) for step in trail.steps] == expected
    assert (trail.start, trail.end) == (expected[0][1], expected[-1][2])


@st.composite
def component_graphs(draw):
    """Multigraphs of several components, with isolated vertices, loops and
    parallel edges, on names of one to three letters.  Each component is a
    path that meets its smallest name on its last edge, plus edges among
    its other names; ids run from 1 in order, or are distinct and shuffled,
    and the edges keep that order or any other."""
    names = draw(st.lists(st.text("abz", min_size=1, max_size=3),
                          min_size=1, max_size=12, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(names) - 1), max_size=4))
                  if len(names) > 1 else [])
    pairs = []
    for group in (names[i:j] for i, j in zip([0] + cuts, cuts + [None])):
        if len(group) > 1 and draw(st.booleans()):
            group = group[:-1]  # the last name stays isolated
        smallest = min(group)
        rest = [w for w in group if w != smallest]
        if not rest:
            pairs.append((smallest, smallest))
            continue
        path = rest + [smallest]
        pairs += list(zip(path, path[1:-1]))
        pairs += draw(st.lists(st.tuples(st.sampled_from(rest),
                                         st.sampled_from(rest)), max_size=3))
        pairs.append((path[-2], smallest))
    if draw(st.booleans()):
        ids = draw(st.permutations(range(1, 2 * len(pairs) + 1)))
    else:
        ids = range(1, len(pairs) + 1)
    edges = [Edge(i, u, v) for i, (u, v) in zip(ids, pairs)]
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    return Multigraph(frozenset(names), tuple(edges))


@settings(max_examples=300, deadline=None)
@given(component_graphs())
def test_components_equal_an_independent_search(g):
    pairs = [(e.u, e.v) for e in g.edges]
    components = edge_components(sorted(g.vertices), pairs)
    ends = [w for pair in pairs for w in pair]
    odd = [w for w in set(ends) if ends.count(w) % 2]
    expected = (EulerianStatus.DISCONNECTED if len(components) > 1
                else EulerianStatus.CIRCUIT if not odd
                else EulerianStatus.OPEN_TRAIL if len(odd) == 2
                else EulerianStatus.NO_TRAIL)
    assert eulerian_status(g) is expected
    if expected in (EulerianStatus.NO_TRAIL, EulerianStatus.DISCONNECTED):
        assert find_trail(g) is expected
    if expected is EulerianStatus.DISCONNECTED:
        firsts = sorted(min(component) for component in components)
        observation = impossibility_proof(g).steps[5].text
        assert observation.endswith("one containing each of "
                                    + ", ".join(firsts) + ".")


class TestImpossibilityProof:
    def test_konigsberg_document(self):
        doc = impossibility_proof(konigsberg_graph(), vertex_noun="land mass",
                                  edge_noun="bridge", place_name="the city")
        kinds = tuple(step.kind for step in doc.steps)
        assert kinds == (StepKind.CLAIM, StepKind.MODEL, StepKind.COUNT,
                         StepKind.OBSERVATION, StepKind.LEMMA,
                         StepKind.OBSERVATION, StepKind.CONTRADICTION,
                         StepKind.QED)
        assert "4 vertices and 7 edges" in doc.steps[2].text
        assert "A, B, C, D" in doc.steps[5].text

    def test_konigsberg_document_uses_the_nouns(self):
        doc = impossibility_proof(konigsberg_graph(), vertex_noun="land mass",
                                  edge_noun="bridge", place_name="the city")
        claim, model = doc.steps[0].text, doc.steps[1].text
        assert "the city" in doc.title
        assert "the city" in claim and "bridge" in claim
        assert "land mass" in model

    def test_cat_and_mouse_cites_odd_rooms(self):
        g = cat_and_mouse_graph()
        doc = impossibility_proof(g, vertex_noun="room",
                                  edge_noun="doorway or window",
                                  place_name="the house")
        odd_step = doc.steps[5].text
        assert f"{len(odd_vertices(g))} vertices of odd degree" in odd_step
        assert len(odd_vertices(g)) > 2

    def test_refused_when_a_trail_exists(self):
        assert impossibility_proof(cycle4()) is EulerianStatus.CIRCUIT
        assert impossibility_proof(path2()) is EulerianStatus.OPEN_TRAIL

    def test_disconnected_graph_gets_a_connectivity_proof(self):
        g = two_triangles()
        assert eulerian_status(g) is EulerianStatus.DISCONNECTED
        assert odd_vertices(g) == ()
        doc = impossibility_proof(g)
        assert tuple(step.kind for step in doc.steps) == (
            StepKind.CLAIM, StepKind.MODEL, StepKind.COUNT,
            StepKind.OBSERVATION, StepKind.LEMMA, StepKind.OBSERVATION,
            StepKind.CONTRADICTION, StepKind.QED)
        assert "6 vertices and 6 edges" in doc.steps[2].text
        assert "share a vertex" in doc.steps[4].text
        assert "2 connected components" in doc.steps[5].text
        assert "A, D" in doc.steps[5].text

    def test_disconnected_proof_names_one_vertex_per_component(self):
        g = graph_from_edges([("B", "C"), ("E", "F"), ("F", "E"), ("H", "H")],
                             extra_vertices=["A"])  # A is isolated
        doc = impossibility_proof(g)
        assert "3 connected components" in doc.steps[5].text
        assert "B, E, H" in doc.steps[5].text

    def test_odd_count_consistency(self):
        rng = random.Random(5)
        produced = 0
        while produced < 20:
            g = random_multigraph(rng)
            if eulerian_status(g) is not EulerianStatus.NO_TRAIL:
                continue
            doc = impossibility_proof(g)
            assert f"{len(odd_vertices(g))} vertices of odd degree" \
                in doc.steps[5].text
            produced += 1

    def test_renders_as_claim_proof_text(self):
        text = impossibility_proof(konigsberg_graph()).render_text()
        assert text.startswith("No complete route")
        assert "Claim." in text and "Proof." in text and "∎" in text
