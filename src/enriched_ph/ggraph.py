"""Colored directed graphs encoding incarnations, and functors indexed by them.

A graph here is (vertices, colors, edges) with the defining property that
every vertex has exactly one outgoing edge per color.  The graph of an
incarnation has measurements as vertices, operations as colors, and an edge
(phi, g, phi.g) for every pair.  Operators become graph morphisms; functors
indexed by a graph attach a payload to each vertex and a payload morphism to
each edge, contravariantly.
"""

from dataclasses import dataclass

from .actions import Incarnation
from .errors import VerificationError


def _quoted(name: str) -> str:
    """name as a DOT string: in double quotes, with backslash and quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


class GrothendieckGraph:
    """Edges are stored as given; validity is checked, not assumed."""

    __slots__ = ("vertices", "colors", "edges", "vertex_names", "color_names", "_follow")

    def __init__(self, vertices, colors, edges, vertex_names=None, color_names=None):
        self.vertices = tuple(vertices)
        self.colors = tuple(colors)
        self.edges = tuple(edges)
        self.vertex_names = dict(vertex_names) if vertex_names else {v: str(v) for v in self.vertices}
        self.color_names = dict(color_names) if color_names else {c: str(c) for c in self.colors}
        self._follow = None

    def follow(self, v, c):
        """The unique endpoint of the c-colored edge out of v (valid graphs only)."""
        if self._follow is None:
            if not validate_graph(self):
                raise ValueError("graph violates the one-edge-per-color condition")
            self._follow = {(a, g): b for a, g, b in self.edges}
        return self._follow[(v, c)]

    def __eq__(self, other):
        return (
            isinstance(other, GrothendieckGraph)
            and self.vertices == other.vertices
            and self.colors == other.colors
            and set(self.edges) == set(other.edges)
        )

    def __hash__(self):
        return hash((self.vertices, self.colors, frozenset(self.edges)))

    def __repr__(self):
        return f"GrothendieckGraph({len(self.vertices)} vertices, {len(self.colors)} colors, {len(self.edges)} edges)"

    def to_json_dict(self) -> dict:
        return {
            "vertices": [self.vertex_names[v] for v in self.vertices],
            "colors": [self.color_names[c] for c in self.colors],
            "edges": [
                [self.vertex_names[a], self.color_names[g], self.vertex_names[b]]
                for a, g, b in self.edges
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GrothendieckGraph":
        return cls(
            data["vertices"],
            data["colors"],
            [tuple(e) for e in data["edges"]],
        )

    def to_dot(self) -> str:
        palette = [
            "black", "red", "blue", "darkgreen", "orange", "purple",
            "brown", "cadetblue", "magenta", "gray40",
        ]
        color_of = {c: palette[i % len(palette)] for i, c in enumerate(self.colors)}
        lines = ["digraph G {"]
        for v in self.vertices:
            lines.append(f"  {_quoted(self.vertex_names[v])};")
        for a, g, b in self.edges:
            lines.append(
                f"  {_quoted(self.vertex_names[a])} -> {_quoted(self.vertex_names[b])}"
                f" [label={_quoted(self.color_names[g])}, color={color_of[g]}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(inc: Incarnation) -> GrothendieckGraph:
    """The graph of an incarnation; the one-edge-per-color condition holds by
    construction but is checked anyway."""
    edges = [(m, g, inc.act(m, g)) for m in inc.dataset for g in inc.ops]
    graph = GrothendieckGraph(
        tuple(inc.dataset),
        inc.ops,
        edges,
        vertex_names={m: m.name for m in inc.dataset},
        color_names={g: g.name for g in inc.ops},
    )
    bad = graph_violation(graph)
    if bad is not None:
        raise VerificationError(bad, f"vertex {bad[0]!r} lacks exactly one edge of color {bad[1]!r}")
    return graph


def graph_violation(graph: GrothendieckGraph):
    """First (vertex, color) pair with edge count != 1, or None."""
    vset, cset = set(graph.vertices), set(graph.colors)
    for a, g, b in graph.edges:
        if a not in vset or b not in vset or g not in cset:
            return (a, g)
    counts = {}
    for a, g, _ in graph.edges:
        counts[(a, g)] = counts.get((a, g), 0) + 1
    for v in graph.vertices:
        for c in graph.colors:
            if counts.get((v, c), 0) != 1:
                return (v, c)
    return None


def validate_graph(graph: GrothendieckGraph) -> bool:
    return graph_violation(graph) is None


def morphism_violation(src: GrothendieckGraph, dst: GrothendieckGraph, vmap: dict, cmap: dict):
    """First source edge whose image is not an edge, or None."""
    dst_edges = set(dst.edges)
    for a, g, b in src.edges:
        if (vmap[a], cmap[g], vmap[b]) not in dst_edges:
            return (a, g, b)
    return None


def validate_morphism(src, dst, vmap: dict, cmap: dict) -> bool:
    return morphism_violation(src, dst, vmap, cmap) is None


def monoid_violation(graph: GrothendieckGraph, mul, identity_color):
    """Check unit edges and closure of edge composition under the product.

    mul(c0, c1) is the color acting like "first c0, then c1"; for operation
    colors this is c0 * c1 (composition applying c1 first).
    """
    edge_set = set(graph.edges)
    for v in graph.vertices:
        if (v, identity_color, v) not in edge_set:
            return (v, identity_color, v)
    for a, g0, b in graph.edges:
        for b2, g1, c in graph.edges:
            if b2 != b:
                continue
            if (a, mul(g0, g1), c) not in edge_set:
                return ((a, g0, b), (b, g1, c))
    return None


def is_monoid_compatible(graph: GrothendieckGraph, mul, identity_color) -> bool:
    return monoid_violation(graph, mul, identity_color) is None


@dataclass(frozen=True)
class GraphCategory:
    """The category with the graph's vertices as objects and edges as morphisms."""

    graph: GrothendieckGraph
    mul: object
    identity_color: object

    def identity(self, v):
        return (v, self.identity_color, v)

    def compose(self, e0, e1):
        """e0 followed by e1; endpoints must chain."""
        if e0[2] != e1[0]:
            raise ValueError("edges do not chain")
        return (e0[0], self.mul(e0[1], e1[1]), e1[2])

    def verify(self) -> bool:
        edges = self.graph.edges
        eset = set(edges)
        for e0 in edges:
            if self.compose(self.identity(e0[0]), e0) != e0 or self.compose(e0, self.identity(e0[2])) != e0:
                return False
        for e0 in edges:
            for e1 in edges:
                if e0[2] != e1[0]:
                    continue
                if self.compose(e0, e1) not in eset:
                    return False
                for e2 in edges:
                    if e1[2] != e2[0]:
                        continue
                    if self.compose(self.compose(e0, e1), e2) != self.compose(e0, self.compose(e1, e2)):
                        return False
        return True


def category(graph: GrothendieckGraph, mul, identity_color) -> GraphCategory:
    bad = monoid_violation(graph, mul, identity_color)
    if bad is not None:
        raise ValueError(f"graph is not compatible with the monoid structure: {bad!r}")
    return GraphCategory(graph, mul, identity_color)


def pseudometric_violation(graph: GrothendieckGraph, dist):
    """First (v, w, g) with dist(vg, wg) > dist(v, w), or None."""
    for v in graph.vertices:
        for w in graph.vertices:
            for g in graph.colors:
                if dist(graph.follow(v, g), graph.follow(w, g)) > dist(v, w):
                    return (v, w, g)
    return None


def validate_pseudometric(graph: GrothendieckGraph, dist) -> bool:
    return pseudometric_violation(graph, dist) is None


class GraphFunctor:
    """Contravariant payload assignment: objects per vertex, a morphism
    P(v1) -> P(v0) per edge (v0, g, v1).  Payload morphisms must support
    @ (composition) and == (comparison)."""

    __slots__ = ("graph", "objects", "arrows")

    def __init__(self, graph: GrothendieckGraph, objects: dict, arrows: dict):
        self.graph = graph
        self.objects = dict(objects)
        self.arrows = dict(arrows)
        for e in graph.edges:
            if e not in self.arrows:
                raise ValueError(f"missing arrow for edge {e!r}")

    def violation(self, mul):
        """First chained pair of edges (e0, e1) breaking functoriality, or None.

        Functoriality is checked over designated composites: for chained
        edges e0, e1 whose composite color mul(g0, g1) is again a color, the
        composite edge's arrow equals arrows[e0] @ arrows[e1]."""
        colors = set(self.graph.colors)
        for (a, g0, b) in self.graph.edges:
            for (b2, g1, c) in self.graph.edges:
                if b2 != b:
                    continue
                h = mul(g0, g1)
                if h not in colors:
                    continue
                composite = (a, h, c)
                if (
                    composite not in self.arrows
                    or self.arrows[composite] != self.arrows[(a, g0, b)] @ self.arrows[(b2, g1, c)]
                ):
                    return ((a, g0, b), (b2, g1, c))
        return None

    def verify(self, mul) -> bool:
        return self.violation(mul) is None

    def __eq__(self, other):
        return (
            isinstance(other, GraphFunctor)
            and self.graph == other.graph
            and self.objects == other.objects
            and self.arrows == other.arrows
        )


def compose_functor(functor: GraphFunctor, vmap: dict, cmap: dict, src: GrothendieckGraph) -> GraphFunctor:
    """Pull a functor back along a morphism src -> functor.graph."""
    bad = morphism_violation(src, functor.graph, vmap, cmap)
    if bad is not None:
        raise ValueError(f"not a graph morphism: edge {bad!r} has no image")
    objects = {v: functor.objects[vmap[v]] for v in src.vertices}
    arrows = {
        (a, g, b): functor.arrows[(vmap[a], cmap[g], vmap[b])] for a, g, b in src.edges
    }
    return GraphFunctor(src, objects, arrows)


def verify_natural_transformation(src_functor: GraphFunctor, dst_functor: GraphFunctor, components: dict) -> bool:
    """Square-by-square check of an edge-indexed family src => dst.

    components[v]: src(v) -> dst(v); for every edge (v0, g, v1) the square
    components[v0] @ src.arrows[e] = dst.arrows[e] @ components[v1] must commute.
    """
    if src_functor.graph != dst_functor.graph:
        return False
    for e in src_functor.graph.edges:
        v0, _, v1 = e
        lhs = components[v0] @ src_functor.arrows[e]
        rhs = dst_functor.arrows[e] @ components[v1]
        if lhs != rhs:
            return False
    return True
