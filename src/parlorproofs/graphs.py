"""Multigraphs, Eulerian trail analysis, and impossibility proof documents.

Vertices are named; parallel edges and self-loops are allowed.  The floor
plan and bridge map inputs use a line-oriented text format (see parse_graph).
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional, Union

from .errors import InputError, content_lines, quote
from .proofdoc import ProofDocument, ProofStep, StepKind

OUTSIDE = "outside"


class GraphFormatError(InputError):
    """Graph text is malformed; the message carries the line number."""


class DegenerateGraphError(InputError):
    """Eulerian analysis needs at least one edge."""


class Edge(NamedTuple):
    id: int
    u: str
    v: str
    label: Optional[str] = None


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
    """
    vertices: set = set()
    edges: list = []
    for lineno, line in content_lines(text):
        parts = line.split()
        keyword = parts[0].lower()
        if keyword == "vertex":
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'vertex <name>'")
            _check_name(parts[1], lineno)
            vertices.add(parts[1])
        elif keyword == "edge":
            if len(parts) not in (3, 4):
                raise GraphFormatError(
                    f"line {lineno}: expected 'edge <name1> <name2> [label]'"
                )
            u, v = parts[1], parts[2]
            label = parts[3] if len(parts) == 4 else None
            for endpoint in (u, v):
                _check_name(endpoint, lineno)
                if endpoint == OUTSIDE:
                    vertices.add(OUTSIDE)
                elif endpoint not in vertices:
                    raise GraphFormatError(
                        f"line {lineno}: edge references undeclared vertex "
                        f"{quote(endpoint)}"
                    )
            edges.append(Edge(len(edges) + 1, u, v, label))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {quote(keyword)}")
    return Multigraph(frozenset(vertices), tuple(edges))


def _check_name(name: str, lineno: int) -> None:
    if not name.replace("_", "").isalnum():
        raise GraphFormatError(f"line {lineno}: bad vertex name {quote(name)}")


def degree_map(g: Multigraph) -> dict:
    """Degree per vertex; a self-loop contributes 2."""
    degrees = {v: 0 for v in g.vertices}
    for edge in g.edges:
        degrees[edge.u] += 1
        degrees[edge.v] += 1
    return degrees


def odd_vertices(g: Multigraph) -> tuple:
    return tuple(sorted(v for v, d in degree_map(g).items() if d % 2 == 1))


class EulerianStatus(Enum):
    CIRCUIT = "Circuit"
    OPEN_TRAIL = "OpenTrail"
    NO_TRAIL = "NoTrail"
    DISCONNECTED = "Disconnected"


def _edge_components(g: Multigraph) -> list:
    """Vertex sets of the components that hold edges; isolated vertices
    are left out."""
    adjacency: dict = {}
    for e in g.edges:
        adjacency.setdefault(e.u, set()).add(e.v)
        adjacency.setdefault(e.v, set()).add(e.u)
    components: list = []
    seen: set = set()
    for root in adjacency:
        if root in seen:
            continue
        component = {root}
        stack = [root]
        while stack:
            fresh = adjacency[stack.pop()] - component
            component |= fresh
            stack.extend(fresh)
        seen |= component
        components.append(component)
    return components


def eulerian_status(g: Multigraph) -> EulerianStatus:
    """Classify g by connectivity and odd-degree count (isolated vertices
    are ignored)."""
    if g.edge_count == 0:
        raise DegenerateGraphError("graph has no edges")
    if len(_edge_components(g)) > 1:
        return EulerianStatus.DISCONNECTED
    odd = len(odd_vertices(g))
    if odd == 0:
        return EulerianStatus.CIRCUIT
    if odd == 2:
        return EulerianStatus.OPEN_TRAIL
    return EulerianStatus.NO_TRAIL


class TrailStep(NamedTuple):
    edge_id: int
    frm: str
    to: str


class Trail(NamedTuple):
    steps: tuple
    start: str
    end: str

    def vertex_sequence(self) -> tuple:
        return (self.start,) + tuple(step.to for step in self.steps)

    def render_text(self) -> str:
        return " -> ".join(self.vertex_sequence())


def find_trail(g: Multigraph) -> Union[Trail, EulerianStatus]:
    """An Eulerian trail, found by Hierholzer's algorithm; or the negative
    status when none exists.

    Deterministic: the walk always takes the unused incident edge with the
    lowest id, and an open trail starts at the smallest-named odd vertex.
    """
    status = eulerian_status(g)
    if status not in (EulerianStatus.CIRCUIT, EulerianStatus.OPEN_TRAIL):
        return status

    incidence: dict = {v: [] for v in g.vertices}
    for edge in g.edges:
        incidence[edge.u].append(edge)
        if edge.v != edge.u:
            incidence[edge.v].append(edge)
    for lists in incidence.values():
        lists.sort(key=attrgetter("id"), reverse=True)  # pop() takes lowest id

    odd = odd_vertices(g)
    start = odd[0] if odd else min(v for v, lists in incidence.items() if lists)

    # Hierholzer: a vertex leaves the stack once its edges are used up, and
    # the edge it arrived by is the trail's next step, read backwards.
    used: set = set()
    stack: list = [(start, None)]
    steps: list = []
    while stack:
        vertex, arrived = stack[-1]
        lists = incidence[vertex]
        while lists and lists[-1].id in used:
            lists.pop()
        if lists:
            edge = lists.pop()
            used.add(edge.id)
            stack.append((edge.v if vertex == edge.u else edge.u, edge))
        else:
            stack.pop()
            if arrived is not None:
                steps.append(TrailStep(arrived.id, stack[-1][0], vertex))
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
    status = eulerian_status(g)
    if status in (EulerianStatus.CIRCUIT, EulerianStatus.OPEN_TRAIL):
        return status
    if status is EulerianStatus.NO_TRAIL:
        odd = odd_vertices(g)
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
        firsts = sorted(min(c) for c in _edge_components(g))
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
