"""Operations on data sets and the structures they generate.

An operation is an endomorphism of the domain that sends every measurement
back into the data set by precomposition.  A chosen set of verified operations
attached to a data set is an incarnation; this module computes its kind,
deformation closures, blocks, independent sets, bases, and dimension.
"""

import itertools
from dataclasses import dataclass

from .core import DataSet, Measurement, PointMap, _json_field, _json_object, _name
from .errors import DomainMismatch, GuardExceeded, NotOperation, VerificationError
from .linalg import _components

DEFAULT_ENUM_GUARD = 6


def _action(g: PointMap, dataset: DataSet):
    """(row, None) with row[phi] the stored phi . g, found by value code, or (None, phi) for the first outside."""
    if g.source != dataset.domain or g.target != dataset.domain:
        raise DomainMismatch("operation must be an endomorphism of the data set domain")
    codes, row = dataset._codes, {}
    for code, m in codes.items():
        row[m] = codes.get(tuple(code[j] for j in g.images))
        if row[m] is None:
            return None, m
    return row, None


def operation_violation(g: PointMap, dataset: DataSet):
    """First measurement phi with phi . g outside the data set, or None."""
    return _action(g, dataset)[1]


def is_operation(g: PointMap, dataset: DataSet) -> bool:
    """True when phi . g stays in the data set for every measurement phi."""
    return operation_violation(g, dataset) is None


@dataclass(frozen=True)
class OperationSet:
    dataset: DataSet
    ops: tuple

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __contains__(self, g):
        return g in self.ops


def _closure_violation(images):
    """First pair (x, y) of image tuples whose composite x . y is missing, else
    None.  A closed set of finitely many maps holds every power of a bijection
    g, so it holds g's inverse, which is one of those powers.

    Checking x . y for each reached x and each generator y covers every pair:
    all members are reached, and x . (y1 ... yk) is reached one generator at a
    time.  Taking high ranks first keeps the generators few.
    """
    found, gens, reached = set(images), [], set()
    for g in sorted(images, key=lambda g: -len(set(g))):
        if g in reached:
            continue
        todo = [(x, g) for x in reached] + [(g, y) for y in gens + [g]]
        gens.append(g)
        reached.add(g)
        while todo:
            x, y = todo.pop()
            xy = tuple(x[i] for i in y)
            if xy not in found:
                return (x, y)
            if xy not in reached:
                reached.add(xy)
                todo.extend((xy, z) for z in gens)
    return None


def _operations(dataset: DataSet, guard: int, bijective: bool) -> dict:
    """Every operation (every bijective one if asked) by its image tuple of point
    indices, in lexicographic order.  Points are assigned in domain order; a
    partial map is dropped once some value code composed with it is not a
    prefix of a member's, which never drops an operation g: phi . g is a member.
    """
    n = len(dataset.domain)
    if n > guard:
        raise GuardExceeded(f"|X|={n} exceeds enumeration guard {guard}")
    codes = dataset._codes
    prefixes = {c[:k] for c in codes for k in range(n + 1)}

    def extend(images, heads):
        if len(images) == n:
            yield images
            return
        for j in range(n):
            grown = [h + (c[j],) for h, c in zip(heads, codes)]
            if not (bijective and j in images) and all(h in prefixes for h in grown):
                yield from extend(images + (j,), grown)

    found = list(extend((), [()] * len(codes)))
    pts, dom = dataset.domain.points, dataset.domain
    return {img: PointMap(dom, dom, {p: pts[j] for p, j in zip(pts, img)}) for img in found}


def _certified(domain, ops) -> tuple:
    """The search's operations, once they hold the identity and pass _closure_violation."""
    if tuple(range(len(domain))) not in ops:
        raise VerificationError(PointMap.identity(domain), "the identity is not an operation")
    bad = _closure_violation(list(ops))
    if bad is not None:
        raise VerificationError(tuple(ops[g] for g in bad), "operation set not closed")
    return tuple(ops.values())


def enumerate_end(dataset: DataSet, guard: int = DEFAULT_ENUM_GUARD) -> OperationSet:
    """All operations of the data set, in lexicographic order of point indices."""
    return OperationSet(dataset, _certified(dataset.domain, _operations(dataset, guard, False)))


def enumerate_aut(dataset: DataSet, guard: int = DEFAULT_ENUM_GUARD) -> OperationSet:
    """The invertible operations, a group, sorted by image tuple (point names)."""
    ops = _certified(dataset.domain, _operations(dataset, guard, True))
    return OperationSet(dataset, tuple(sorted(ops, key=lambda g: g.image_tuple())))


def generated_submonoid(ops, domain=None) -> tuple:
    """Least composition-closed set containing the identity and the given endos."""
    ops = list(ops)
    if not ops:
        if domain is None:
            raise ValueError("cannot infer the domain from an empty generating set")
        return (PointMap.identity(domain),)
    domain = ops[0].source
    for g in ops:
        if g.source != domain or g.target != domain:
            raise DomainMismatch("generators must be endomorphisms of one domain")
    closure = {PointMap.identity(domain)}
    closure.update(ops)
    frontier = list(closure)
    while frontier:
        fresh = []
        for g in ops:
            for h in frontier:
                gh = g * h
                if gh not in closure:
                    closure.add(gh)
                    fresh.append(gh)
        frontier = fresh
    return tuple(sorted(closure, key=lambda g: g.image_tuple()))


class Incarnation:
    """A data set together with a verified set of its operations.

    The kind tag is always computed from the operations, never trusted from
    input: "group" and "monoid" require closure under composition with
    identity, "group-like" means all operations are bijections, anything
    else is "general".  An empty operation set is allowed; a name bound to
    two different operations is not.  Verifying each operation keeps its
    action table row (phi -> phi . g), which act and reach read.
    """

    __slots__ = ("dataset", "ops", "kind", "_by_alias", "_action", "_reach")

    def __init__(self, dataset: DataSet, ops=()):
        self.dataset = dataset
        first, found, self._action = {}, [], {}
        for g in ops:
            if g not in self._action:
                self._action[g], bad = _action(g, dataset)
                if bad is not None:
                    raise NotOperation(g, bad)
            key = g.image_tuple()
            first.setdefault(key, g)
            found.append((key, g.aliases))
        named = _name(found, "g", "operations", preferred=(dataset.domain.points, "id"))
        self.ops = tuple(
            first[key] if first[key].aliases == aliases else first[key].with_aliases(aliases)
            for key, aliases in named
        )
        self._by_alias = {a: g for g in self.ops for a in g.aliases}
        self.kind = self._compute_kind()
        self._reach = None

    def _compute_kind(self) -> str:
        by_image = {g.images: g for g in self.ops}
        has_id = tuple(range(len(self.dataset.domain))) in by_image
        bad = _closure_violation(list(by_image))
        all_bij = all(g.is_bijective for g in self.ops)
        if has_id and bad is None:
            return "group" if all_bij else "monoid"
        return "group-like" if all_bij else "general"

    def op_by_name(self, name: str) -> PointMap:
        if not isinstance(name, str):
            raise TypeError(f"operation names are strings, not {type(name).__name__}")
        try:
            return self._by_alias[name]
        except KeyError:
            raise KeyError(f"no operation named {name!r}") from None

    def act(self, m: Measurement, g: PointMap) -> Measurement:
        """The stored m . g, for g one of the operations (aliases ignored)."""
        row = self._action.get(g)
        if row is None:
            raise KeyError(f"{g!r} is not an operation of this incarnation")
        return row[m]

    def reach(self) -> dict:
        """For each measurement, the set of measurements reachable by words."""
        if self._reach is None:
            rows, out = self._action.values(), {}
            for m in self.dataset:
                seen, todo = {m}, [m]
                while todo:
                    cur = todo.pop()
                    fresh = {row[cur] for row in rows} - seen
                    seen |= fresh
                    todo.extend(fresh)
                out[m] = frozenset(seen)
            self._reach = out
        return self._reach

    def __eq__(self, other):
        return (
            isinstance(other, Incarnation)
            and self.dataset == other.dataset
            and set(self.ops) == set(other.ops)
        )

    def __hash__(self):
        return hash((self.dataset, frozenset(self.ops)))

    def __repr__(self):
        return f"Incarnation({len(self.dataset)} measurements, {len(self.ops)} ops, {self.kind})"

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset.to_json_dict(),
            "M": {g.name: dict(g.mapping) for g in self.ops},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Incarnation":
        ds = DataSet.from_json_dict(_json_object(_json_field(data, "dataset"), "dataset"))
        ops = []
        for name, mapping in _json_object(data.get("M", {}), "M").items():
            mapping = _json_object(mapping, f"operation {name!r}")
            ops.append(PointMap(ds.domain, ds.domain, mapping, (name,)))
        return cls(ds, ops)


def universal_incarnation(dataset: DataSet, guard: int = DEFAULT_ENUM_GUARD) -> Incarnation:
    ops = _operations(dataset, guard, False)
    inc = Incarnation(dataset, ops.values())
    if inc.kind not in ("monoid", "group"):  # the kind certifies the search; find the witness
        _certified(dataset.domain, ops)
    return inc


def deformation_closure(omega, inc: Incarnation) -> tuple:
    """Everything reachable from omega by acting with words of operations."""
    omega = [inc.dataset.find(m) for m in omega]
    reach = inc.reach()
    out = set()
    for m in omega:
        out |= reach[m]
    return tuple(sorted(out, key=lambda m: m.values))


@dataclass(frozen=True)
class Partition:
    blocks: tuple  # tuple of tuples of measurements

    def block_of(self, m: Measurement) -> tuple:
        for b in self.blocks:
            if m in b:
                return b
        raise KeyError(f"{m!r} not covered by the partition")

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def blocks(inc: Incarnation) -> Partition:
    """Connected components of the symmetrized reachability relation.

    The measurements are in the canonical order and each component is
    rooted at its least member (_components), so every block lists its
    members in that order and the blocks come in the order of their first
    members."""
    ms = inc.dataset.measurements
    pos = {m: k for k, m in enumerate(ms)}
    roots, _ = _components(len(ms), [(k, pos[inc.act(m, g)]) for k, m in enumerate(ms) for g in inc.ops])
    groups: dict = {}
    for m, root in zip(ms, roots):
        groups.setdefault(root, []).append(m)
    return Partition(tuple(tuple(g) for g in groups.values()))


def indistinguishable(phi: Measurement, psi: Measurement, inc: Incarnation) -> bool:
    phi, psi = inc.dataset.find(phi), inc.dataset.find(psi)
    reach = inc.reach()
    return psi in reach[phi] and phi in reach[psi]


def is_independent(omega, inc: Incarnation) -> bool:
    """No member is reachable from another member."""
    omega = [inc.dataset.find(m) for m in omega]
    reach = inc.reach()
    return all(
        a not in reach[b] for a, b in itertools.permutations(omega, 2)
    )


def find_basis(inc: Incarnation) -> tuple:
    """The canonically first basis: the first member of each source class.

    A source class is a set of measurements that reach each other and that
    no measurement outside the set reaches.  The bases are exactly the sets
    that take one member from each source class:
    - a member of a source class is reached only from inside its class, so
      every generating set holds at least one member of each class;
    - two members of one class reach each other, so an independent set holds
      at most one;
    - every other measurement is reached from some source class (follow its
      reachers up the finite preorder to a class no outsider reaches), so
      one member of each class generates, and a set that also holds another
      measurement is not independent.
    m is the first member of its class when every measurement that reaches m
    is also reached by m and none of them comes earlier in canonical order.
    The tuple of first members comes first in canonical order: its k-th
    smallest member is never later than the k-th smallest member of any
    other basis.
    """
    ms, reach = inc.dataset.measurements, inc.reach()
    return tuple(
        m for k, m in enumerate(ms)
        if all(j >= k and x in reach[m] for j, x in enumerate(ms) if m in reach[x])
    )


def enumerate_bases(inc: Incarnation, guard: int = 12) -> list:
    """All bases, canonically ordered: the product of the source classes (find_basis)."""
    n = len(inc.dataset)
    if n > guard:
        raise GuardExceeded(f"|Phi|={n} exceeds basis enumeration guard {guard}")
    ms, reach = inc.dataset.measurements, inc.reach()
    classes = [[j for j, x in enumerate(ms) if x in reach[m] and m in reach[x]] for m in find_basis(inc)]
    return [tuple(ms[j] for j in pick) for pick in sorted(map(sorted, itertools.product(*classes)))]


def dimension(inc: Incarnation) -> int:
    return len(find_basis(inc))


def block_incarnation(inc: Incarnation, psi: Measurement) -> Incarnation:
    """The block of psi, carrying the same operations; always transitive."""
    psi = inc.dataset.find(psi)
    block = blocks(inc).block_of(psi)
    sub = DataSet(inc.dataset.domain, block)
    out = Incarnation(sub, inc.ops)
    if len(blocks(out)) != 1:
        raise VerificationError(psi, f"the block of {psi.name} is not transitive")
    return out
