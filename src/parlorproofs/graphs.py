"""Multigraphs, Eulerian trail analysis, and impossibility proof documents.

Vertices are named; parallel edges and self-loops are allowed.  The floor
plan and bridge map inputs use a line-oriented text format (see parse_graph).
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import partial
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional, Union

from .errors import InputError, content_lines, quote
from .proofdoc import ProofDocument, ProofStep, StepKind

OUTSIDE = "outside"


class GraphFormatError(InputError):
    """Graph text is malformed; the message carries the line number."""


class DegenerateGraphError(InputError):
    """Eulerian analysis needs at least one edge."""


class UnknownVertexError(InputError):
    """An edge of a graph built in code joins a vertex the graph lacks."""


class DuplicateEdgeError(InputError):
    """A graph built in code holds two edges of one id."""


class Edge(NamedTuple):
    id: int
    u: str
    v: str
    label: Optional[str] = None


# Builds an Edge from a 4-tuple without NamedTuple's Python-level __new__.
_new_edge = partial(tuple.__new__, Edge)


class Multigraph(NamedTuple):
    vertices: frozenset
    edges: tuple  # of Edge, each joining two of the vertices

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def parse_graph(text: str) -> Multigraph:
    """Parse the line-oriented graph format.

    Lines: `vertex <name>` and `edge <name1> <name2> [label]`; `#` starts a
    comment; the vertex `outside` is declared implicitly on first use.
    Each vertex name is held once: the edges share its declared string.
    """
    names: dict = {}  # each declared name to itself
    edges: list = []
    for lineno, line in content_lines(text):
        parts = line.split()
        keyword = parts[0].lower()
        if keyword == "edge":  # most lines of a graph are edge lines
            if len(parts) not in (3, 4):
                raise GraphFormatError(
                    f"line {lineno}: expected 'edge <name1> <name2> [label]'"
                )
            # Each declared name passed the check on its vertex line.
            try:
                u, v = names[parts[1]], names[parts[2]]
            except KeyError:
                for endpoint in parts[1:3]:
                    if endpoint != OUTSIDE and endpoint not in names:
                        raise GraphFormatError(
                            f"line {lineno}: edge references undeclared "
                            f"vertex {quote(endpoint)}"
                        ) from None
                names[OUTSIDE] = OUTSIDE  # the one name that missed
                u, v = names[parts[1]], names[parts[2]]
            label = parts[3] if len(parts) == 4 else None
            edges.append(_new_edge((len(edges) + 1, u, v, label)))
        elif keyword == "vertex":
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'vertex <name>'")
            name = parts[1]
            if not name.replace("_", "").isalnum():
                raise GraphFormatError(f"line {lineno}: bad vertex name {quote(name)}")
            names.setdefault(name, name)  # a second declaration adds nothing
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {quote(keyword)}")
    return Multigraph(frozenset(names), tuple(edges))


def _incidence(g: Multigraph) -> dict:
    """The edges at each vertex, highest id first, so that pop() takes the
    lowest; a self-loop is listed twice, so a list's length is the degree."""
    incidence: dict = {v: [] for v in g.vertices}
    try:
        for edge in sorted(g.edges, key=attrgetter("id"), reverse=True):
            incidence[edge.u].append(edge)
            incidence[edge.v].append(edge)
    except KeyError as exc:
        raise UnknownVertexError(
            f"edge {edge.id} joins {quote(exc.args[0])}, which is not a "
            f"vertex of the graph") from None
    if len(set(map(itemgetter(0), g.edges))) < len(g.edges):
        (twice, n), = Counter(map(itemgetter(0), g.edges)).most_common(1)
        raise DuplicateEdgeError(f"{n} edges have the id {twice}")
    return incidence


def _degrees(g: Multigraph) -> Counter:
    """The degree of each vertex that has an edge (a self-loop counts 2),
    counted in two passes over the edges that run in C."""
    degrees = Counter(map(itemgetter(1), g.edges))
    degrees.update(map(itemgetter(2), g.edges))
    if not (degrees.keys() <= g.vertices
            and len(set(map(itemgetter(0), g.edges))) == len(g.edges)):
        _incidence(g)  # raises the error that names the edge or the id
    return degrees


def _odd(degrees) -> tuple:
    """The vertices of odd degree, sorted, from (vertex, degree) pairs."""
    return tuple(sorted(v for v, degree in degrees if degree % 2))


def degree_map(g: Multigraph) -> dict:
    """Degree per vertex; a self-loop contributes 2."""
    degrees = _degrees(g)
    return {v: degrees[v] for v in g.vertices}


def odd_vertices(g: Multigraph) -> tuple:
    return _odd(_degrees(g).items())


class EulerianStatus(Enum):
    CIRCUIT = "Circuit"
    OPEN_TRAIL = "OpenTrail"
    NO_TRAIL = "NoTrail"
    DISCONNECTED = "Disconnected"


def _edge_components(g: Multigraph, degrees: dict) -> list:
    """The smallest vertex of each component that holds edges, sorted;
    isolated vertices are left out.  A union-find over the edges (Tarjan
    1975, with path halving) keeps each set's smallest name as its root."""
    parent = dict(zip(degrees, degrees))
    for edge in g.edges:
        u, v = edge.u, edge.v
        while u != (up := parent[u]):
            parent[u] = u = parent[up]
        while v != (vp := parent[v]):
            parent[v] = v = parent[vp]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    return sorted(v for v, root in parent.items() if v == root)


def _analysis(g: Multigraph, degrees=None) -> tuple:
    """(status, odd vertices, smallest vertex of each component that holds
    edges) of g, given the degrees of the vertices that hold edges or not;
    a disconnected graph is DISCONNECTED whatever its degrees."""
    if not g.edges:
        raise DegenerateGraphError("graph has no edges")
    degrees = _degrees(g) if degrees is None else degrees
    odd = _odd(degrees.items())
    firsts = _edge_components(g, degrees)
    status = (EulerianStatus.DISCONNECTED if len(firsts) > 1
              else EulerianStatus.CIRCUIT if not odd
              else EulerianStatus.OPEN_TRAIL if len(odd) == 2
              else EulerianStatus.NO_TRAIL)
    return status, odd, firsts


def eulerian_status(g: Multigraph) -> EulerianStatus:
    """Classify g by connectivity and odd-degree count (isolated vertices
    are ignored)."""
    return _analysis(g)[0]


def status_and_odd_vertices(g: Multigraph) -> tuple:
    """(eulerian_status(g), odd_vertices(g)), from one analysis."""
    return _analysis(g)[:2]


class TrailStep(NamedTuple):
    edge_id: int
    frm: str
    to: str


_new_step = partial(tuple.__new__, TrailStep)  # as _new_edge builds an Edge


class Trail(NamedTuple):
    steps: tuple
    start: str
    end: str

    def render_text(self) -> str:
        return " -> ".join([self.start] + [step.to for step in self.steps])


def find_trail(g: Multigraph) -> Union[Trail, EulerianStatus]:
    """An Eulerian trail, found by Hierholzer's algorithm; or the negative
    status when none exists.

    Deterministic: the walk always takes the unused incident edge with the
    lowest id, and an open trail starts at the smallest-named odd vertex.
    """
    incidence = _incidence(g)
    odd = _odd(zip(incidence, map(len, incidence.values())))
    if len(odd) > 2 or not g.edges:  # no trail, or refused: no edges
        return _analysis(g, {v: len(e) for v, e in incidence.items() if e})[0]
    start = odd[0] if odd else min(v for v, e in incidence.items() if e)

    # Hierholzer: the walk so far is a stack of (from vertex, edge id)
    # pairs.  When the current vertex's edges are used up, the edge it was
    # reached by is the trail's next step, read backwards.
    used: set = set()
    stack: list = []
    steps: list = []
    vertex = start
    while True:
        lists = incidence[vertex]
        while lists and lists[-1].id in used:
            lists.pop()
        if lists:
            edge = lists.pop()
            edge_id = edge.id
            used.add(edge_id)
            stack.append((vertex, edge_id))
            vertex = edge.v if vertex == edge.u else edge.u
        elif stack:
            frm, edge_id = stack.pop()
            steps.append(_new_step((edge_id, frm, vertex)))
            vertex = frm
        else:
            break
    # With at most two odd vertices, the walk uses every edge of the start's
    # component; any edge it left lies in another component.
    if len(steps) < g.edge_count:
        return EulerianStatus.DISCONNECTED
    steps.reverse()
    return Trail(tuple(steps), start, steps[-1].to)


def impossibility_proof(g: Multigraph, vertex_noun: str = "vertex",
                        edge_noun: str = "edge",
                        place_name: str = "the graph"
                        ) -> Union[ProofDocument, EulerianStatus]:
    """Claim-Proof document that no trail of g contains every edge; or the
    status, CIRCUIT or OPEN_TRAIL, of a graph that has such a trail.

    The proof is the parity argument when eulerian_status(g) is NO_TRAIL and
    the connectivity argument when it is DISCONNECTED; the step order is
    claim, model, counts, reduction, lemma, observation, contradiction, qed.
    """
    status, odd, firsts = _analysis(g)
    if status in (EulerianStatus.CIRCUIT, EulerianStatus.OPEN_TRAIL):
        return status
    if status is EulerianStatus.NO_TRAIL:
        argument = (
            ProofStep(StepKind.LEMMA,
                      "Except possibly for its beginning and ending vertices, "
                      "every vertex of a trail T touches an even number of "
                      "edges of T, because each middle vertex is entered by "
                      "one edge and exited by another."),
            ProofStep(StepKind.OBSERVATION,
                      f"However, G has {len(odd)} vertices of odd degree: "
                      + ", ".join(odd) + "."),
            ProofStep(StepKind.CONTRADICTION,
                      f"A trail containing every edge of G would leave at "
                      f"most two vertices of odd degree, yet {len(odd)} > 2 "
                      f"are odd. Hence no trail contains every edge of G, "
                      f"and no such route exists."),
        )
    else:  # DISCONNECTED
        argument = (
            ProofStep(StepKind.LEMMA,
                      "Consecutive edges of a trail T share a vertex, so all "
                      "edges of T lie in one connected component of G."),
            ProofStep(StepKind.OBSERVATION,
                      f"However, the edges of G lie in {len(firsts)} "
                      f"connected components, one containing each of "
                      + ", ".join(firsts) + "."),
            ProofStep(StepKind.CONTRADICTION,
                      f"A trail containing every edge of G would put edges "
                      f"of {len(firsts)} components into one component. "
                      f"Hence no trail contains every edge of G, and no such "
                      f"route exists."),
        )

    steps = (
        ProofStep(StepKind.CLAIM,
                  f"There is no route through {place_name} that uses every "
                  f"{edge_noun} exactly once."),
        ProofStep(StepKind.MODEL,
                  f"Represent {place_name} with a graph G: draw a vertex for "
                  f"each {vertex_noun} and an edge for each {edge_noun}."),
        ProofStep(StepKind.COUNT,
                  f"G consists of {len(g.vertices)} vertices and "
                  f"{g.edge_count} edges."),
        ProofStep(StepKind.OBSERVATION,
                  "It suffices to prove that no trail in G contains every "
                  "edge of G."),
    ) + argument + (ProofStep(StepKind.QED, "∎"),)
    title = f"No complete route through {place_name}"
    return ProofDocument(title, steps)
