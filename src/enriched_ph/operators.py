"""Equivariant operators between incarnations.

An operator is a pair of maps: one on measurements, one on operations, with
the action intertwined.  Operators compose, some are realized by point maps
between the underlying domains ("geometric"), and they can be built from
restriction, domain change, change of units, or extension from a basis.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .actions import DEFAULT_ENUM_GUARD, Incarnation, blocks, is_independent, universal_incarnation
from .core import (
    DataSet,
    Domain,
    Measurement,
    PointMap,
    ValueMap,
    change_units,
    domain_change,
)
from .errors import EquivarianceError, HypothesisViolation, NotInvariant, VerificationError


@dataclass(frozen=True)
class Relation:
    """Two operation words sending two measurements to one common value."""

    left: Measurement
    right: Measurement
    left_word: tuple
    right_word: tuple

    @staticmethod
    def _apply(inc, m, word):
        for g in word:
            m = inc.act(m, g)
        return m

    def holds_in(self, inc: Incarnation) -> bool:
        return self._apply(inc, self.left, self.left_word) == self._apply(
            inc, self.right, self.right_word
        )

    def image(self, alpha_bar: dict, tmap: dict) -> "Relation":
        return Relation(
            alpha_bar[self.left],
            alpha_bar[self.right],
            tuple(tmap[g] for g in self.left_word),
            tuple(tmap[g] for g in self.right_word),
        )

    def __repr__(self):
        lw = ".".join(g.name for g in self.left_word) or "id"
        rw = ".".join(g.name for g in self.right_word) or "id"
        return f"Relation({self.left.name}.{lw} = {self.right.name}.{rw})"


class SEO:
    """Verified equivariant operator between two incarnations.

    measurement_map is total on the source measurements with images in the
    target; operation_map likewise for operations.  Instances are built
    through validate_seo, which rejects any equivariance failure with a
    witness.  No attempt is made to extend operation_map to the generated
    monoid: such an extension need not exist.
    """

    __slots__ = ("source", "target", "measurement_map", "operation_map", "_realization")

    def __init__(self, source, target, measurement_map, operation_map, _validated=False):
        if not _validated:
            raise TypeError("construct operators through validate_seo")
        self.source = source
        self.target = target
        self.measurement_map = measurement_map
        self.operation_map = operation_map
        self._realization = ...  # computed lazily

    @property
    def is_monoid_operator(self) -> bool:
        """Both endpoints monoid incarnations and operation_map a monoid hom."""
        if self.source.kind not in ("monoid", "group") or self.target.kind not in ("monoid", "group"):
            return False
        return _homomorphism_violation(self.source, self.target, self.operation_map) is None

    @property
    def is_group_operator(self) -> bool:
        return (
            self.source.kind == "group"
            and self.target.kind == "group"
            and self.is_monoid_operator
        )

    @property
    def realization(self):
        if self._realization is ...:
            self._realization = find_seo_realization(self)
        return self._realization

    @property
    def is_geometric(self) -> bool:
        return self.realization is not None

    @property
    def is_isomorphism(self) -> bool:
        alpha_img = set(self.measurement_map.values())
        t_img = set(self.operation_map.values())
        return (
            len(alpha_img) == len(self.source.dataset) == len(self.target.dataset)
            and len(t_img) == len(self.source.ops) == len(self.target.ops)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SEO)
            and self.source == other.source
            and self.target == other.target
            and self.measurement_map == other.measurement_map
            and self.operation_map == other.operation_map
        )

    def __hash__(self):
        return hash(
            (
                self.source,
                self.target,
                tuple(sorted(((k.values, v.values) for k, v in self.measurement_map.items()))),
                tuple(sorted(((k.image_tuple(), v.image_tuple()) for k, v in self.operation_map.items()))),
            )
        )

    def __repr__(self):
        return f"SEO({self.source!r} -> {self.target!r})"

    def to_json_dict(self) -> dict:
        return {
            "alpha": {m.name: self.measurement_map[m].name for m in self.source.dataset},
            "T": {g.name: self.operation_map[g].name for g in self.source.ops},
        }


def _homomorphism_violation(source: Incarnation, target: Incarnation, tmap: dict):
    """A HypothesisViolation naming (identity,) when tmap does not keep the identity,
    else the first pair (g, h) with T(g h) != T(g) T(h), else None.  Both endpoints are monoids."""
    ident = PointMap.identity(source.dataset.domain)
    if tmap[ident] != PointMap.identity(target.dataset.domain):
        return HypothesisViolation((ident,), "operation map does not preserve the identity")
    pairs = itertools.product(source.ops, repeat=2)
    bad = next(((g, h) for g, h in pairs if tmap[g * h] != tmap[g] * tmap[h]), None)
    return None if bad is None else HypothesisViolation(bad, "operation map is not a homomorphism")


def validate_seo(source: Incarnation, target: Incarnation, measurement_map, operation_map) -> SEO:
    """Check totality, image containment, and every equivariance instance."""
    alpha = {source.dataset.find(k): target.dataset.find(v) for k, v in measurement_map.items()}
    for m in source.dataset:
        if m not in alpha:
            raise ValueError(f"measurement map is not total: missing {m.name}")
    tmap = dict(operation_map)
    target_ops = set(target.ops)
    for g in source.ops:
        if g not in tmap:
            raise ValueError(f"operation map is not total: missing {g.name}")
        if tmap[g] not in target_ops:
            raise EquivarianceError((None, g), f"image of {g.name} is not a target operation")
    for m in source.dataset:
        for g in source.ops:
            lhs = alpha[source.act(m, g)]
            rhs = target.act(alpha[m], tmap[g])
            if lhs != rhs:
                raise EquivarianceError(
                    (m, g),
                    f"alpha({m.name}.{g.name}) = {lhs.name} but alpha({m.name}).T({g.name}) = {rhs.name}",
                )
    return SEO(source, target, alpha, tmap, _validated=True)


def identity_seo(inc: Incarnation) -> SEO:
    return validate_seo(inc, inc, {m: m for m in inc.dataset}, {g: g for g in inc.ops})


def compose_seo(first: SEO, second: SEO) -> SEO:
    """second after first; endpoints must agree."""
    if first.target != second.source:
        raise ValueError("operators are not composable: endpoint mismatch")
    alpha = {m: second.measurement_map[v] for m, v in first.measurement_map.items()}
    tmap = {g: second.operation_map[h] for g, h in first.operation_map.items()}
    out = validate_seo(first.source, second.target, alpha, tmap)
    if first._realization not in (..., None) and second._realization not in (..., None):
        out._realization = first.realization * second.realization
    return out


def canonical_seo(inc: Incarnation, guard: int = DEFAULT_ENUM_GUARD) -> SEO:
    """Identity on measurements into the incarnation with every operation."""
    universal = universal_incarnation(inc.dataset, guard)
    return validate_seo(inc, universal, {m: m for m in inc.dataset}, {g: g for g in inc.ops})


# ---------------------------------------------------------------------------
# realizations


def realization_candidates(source_ds: DataSet, target_ds: DataSet, alpha: dict) -> dict:
    """Per-point candidate sets for a realization of alpha.

    alpha sends measurements on X to measurements on Y; a realization is
    f: Y -> X with phi . f = alpha(phi) for every phi, so y may map to any x
    on which every phi agrees with alpha(phi)(y).
    """
    alpha = {source_ds.find(k): target_ds.find(v) for k, v in alpha.items()}
    cands = {}
    for y in target_ds.domain:
        cands[y] = [
            x
            for x in source_ds.domain
            if all(phi.at(x) == alpha[phi].at(y) for phi in source_ds)
        ]
    return cands


def find_realization(source_ds: DataSet, target_ds: DataSet, alpha: dict):
    """First realization in domain order, or None when some point has no candidate."""
    cands = realization_candidates(source_ds, target_ds, alpha)
    if any(not c for c in cands.values()):
        return None
    return PointMap(target_ds.domain, source_ds.domain, {y: c[0] for y, c in cands.items()})


def find_all_realizations(source_ds: DataSet, target_ds: DataSet, alpha: dict) -> list:
    """Exhaustive list of realizations; the constraint is pointwise independent."""
    cands = realization_candidates(source_ds, target_ds, alpha)
    ys = list(target_ds.domain)
    out = []
    for combo in itertools.product(*(cands[y] for y in ys)):
        out.append(PointMap(target_ds.domain, source_ds.domain, dict(zip(ys, combo))))
    return out


def find_seo_realization(seo: SEO):
    """Backtracking search for a point map realizing the operator.

    Besides the measurement constraints, a realization must intertwine the
    operations: f(T(g)(y)) = g(f(y)).  Choosing f(y) therefore propagates
    along the target operations; the search assigns points in domain order
    and propagates each choice to a fixed point before moving on.
    """
    src_ds, tgt_ds = seo.source.dataset, seo.target.dataset
    cands = realization_candidates(src_ds, tgt_ds, seo.measurement_map)
    if any(not c for c in cands.values()):
        return None
    ys = list(tgt_ds.domain)
    pairs = [(g, seo.operation_map[g]) for g in seo.source.ops]

    def propagate(assign, y, x):
        queue = [(y, x)]
        while queue:
            cy, cx = queue.pop()
            if cy in assign:
                if assign[cy] != cx:
                    return None
                continue
            if cx not in cands[cy]:
                # equivariance sends candidates to candidates: the operator changed after validation
                raise VerificationError((cy, cx), f"{cx} is not a candidate for {cy} in a validated operator")
            assign[cy] = cx
            for g, tg in pairs:
                queue.append((tg(cy), g(cx)))
        return assign

    def search(assign, idx):
        while idx < len(ys) and ys[idx] in assign:
            idx += 1
        if idx == len(ys):
            return assign
        y = ys[idx]
        for x in cands[y]:
            trial = propagate(dict(assign), y, x)
            if trial is None:
                continue
            done = search(trial, idx + 1)
            if done is not None:
                return done
        return None

    found = search({}, 0)
    if found is None:
        return None
    return PointMap(tgt_ds.domain, src_ds.domain, found)


# ---------------------------------------------------------------------------
# construction routes


def restriction(inc: Incarnation, subset) -> tuple:
    """Restrict to an invariant subset of the domain; returns (restricted, operator)."""
    keep = [p for p in inc.dataset.domain if p in set(subset)]
    keep_set = set(keep)
    for y in keep:
        for g in inc.ops:
            if g(y) not in keep_set:
                raise NotInvariant((y, g), f"{g.name}({y}) = {g(y)} leaves the subset")
    sub_domain = Domain(keep)
    inclusion = PointMap(sub_domain, inc.dataset.domain, {p: p for p in keep})
    sub_ds, to_image = domain_change(inc.dataset, inclusion)
    op_map = {
        g: PointMap(sub_domain, sub_domain, {p: g(p) for p in keep}, g.aliases)
        for g in inc.ops
    }
    out = Incarnation(sub_ds, op_map.values())
    seo = validate_seo(inc, out, to_image, op_map)
    seo._realization = inclusion
    return out, seo


def domain_change_incarnation(inc: Incarnation, f: PointMap) -> tuple:
    """Transport the incarnation along a bijection f: Y -> X by conjugation."""
    if not f.is_bijective:
        raise ValueError("domain change of an incarnation needs a bijection")
    if f.target != inc.dataset.domain:
        raise ValueError("bijection target must be the incarnation domain")
    new_ds, to_image = domain_change(inc.dataset, f)
    finv = f.inverse()
    op_map = {g: (finv * g * f).with_aliases(g.aliases) for g in inc.ops}
    out = Incarnation(new_ds, op_map.values())
    seo = validate_seo(inc, out, to_image, op_map)
    seo._realization = f
    return out, seo


def change_units_seo(f: ValueMap, inc: Incarnation) -> tuple:
    """Apply a value map to every measurement, keeping the operations."""
    new_ds, to_image = change_units(f, inc.dataset)
    out = Incarnation(new_ds, inc.ops)  # re-verifies the operations
    return out, validate_seo(inc, out, to_image, {g: g for g in inc.ops})


def change_units_apply(f: ValueMap, seo: SEO) -> tuple:
    """Image of an operator under the change-of-units functor for invertible f.

    Returns (new_source, new_target, new_seo); the measurement map is
    conjugated by the value bijections, the operation map is unchanged.
    """
    if not f.is_invertible:
        raise ValueError("the change-of-units functor needs an invertible value map")
    new_src, src_fwd = change_units_seo(f, seo.source)
    new_tgt, tgt_fwd = change_units_seo(f, seo.target)
    finv_on_src = {v: k for k, v in src_fwd.measurement_map.items()}
    alpha = {
        m: tgt_fwd.measurement_map[seo.measurement_map[finv_on_src[m]]]
        for m in new_src.dataset
    }
    tmap = {g: seo.operation_map[g] for g in seo.source.ops}
    return new_src, new_tgt, validate_seo(new_src, new_tgt, alpha, tmap)


# ---------------------------------------------------------------------------
# extension from a basis


def _closure_pairs(source, target, seeds, tmap):
    """Walk (phi, psi) pairs under (g, T(g)); detect double assignments.

    The walk covers exactly the coincidences expressible by words, so a
    single-valued closure is equivalent to the unbounded relation condition.
    Returns (assignment, conflict); a conflict is the violated Relation
    between the two seed measurements whose derivations disagree.
    """
    assign, parent, queue = dict(seeds), dict.fromkeys(seeds), list(seeds)
    while queue:
        phi = queue.pop(0)
        psi = assign[phi]
        for g in source.ops:
            nphi = source.act(phi, g)
            npsi = target.act(psi, tmap[g])
            if nphi in assign:
                if assign[nphi] != npsi:
                    seed_a, word_a = _derivation(parent, phi)
                    seed_b, word_b = _derivation(parent, nphi)
                    return assign, Relation(seed_a, seed_b, word_a + (g,), word_b)
            else:
                assign[nphi] = npsi
                parent[nphi] = (phi, g)
                queue.append(nphi)
    return assign, None


def _derivation(parent, phi):
    word = []
    while parent[phi] is not None:
        phi, g = parent[phi]
        word.append(g)
    return phi, tuple(reversed(word))


def _operation_map(source, target, operation_map) -> dict:
    tmap, tset = dict(operation_map), set(target.ops)
    for g in source.ops:
        if g not in tmap or tmap[g] not in tset:
            raise ValueError(f"operation map must send {g.name} to a target operation")
    return tmap


def _isotropy_violation(source, target, tmap, omega, psi):
    """First operation g fixing omega whose image T(g) does not fix psi, or None."""
    fixing = (g for g in source.ops if source.act(omega, g) == omega)
    return next((g for g in fixing if target.act(psi, tmap[g]) != psi), None)


def extend_from_basis(
    source: Incarnation,
    target: Incarnation,
    basis,
    alpha_bar: dict,
    operation_map: dict,
    variant: str = "SEO",
) -> SEO:
    """The unique operator restricting to alpha_bar on a basis, if the variant
    hypothesis holds.

    variant "SEO": arbitrary endpoints; requires every pair of words giving a
    coincidence between basis elements to give one between their images.
    variant "MEO": monoid endpoints and a monoid homomorphism; single-step
    coincidences suffice.  variant "GEO": group endpoints and a group
    homomorphism; only the isotropy condition at each basis element is needed.
    """
    basis = tuple(source.dataset.find(m) for m in basis)
    if not is_independent(basis, source):
        raise HypothesisViolation(basis, "the given subset is not independent")
    alpha_bar = {source.dataset.find(k): target.dataset.find(v) for k, v in alpha_bar.items()}
    if set(alpha_bar) != set(basis):
        raise ValueError("alpha_bar must be defined exactly on the basis")
    tmap = _operation_map(source, target, operation_map)

    if variant not in ("SEO", "MEO", "GEO"):
        raise ValueError(f"unknown variant {variant!r}")

    if variant in ("MEO", "GEO"):
        wanted = ("monoid", "group") if variant == "MEO" else ("group",)
        if source.kind not in wanted or target.kind not in wanted:
            raise HypothesisViolation(
                (source.kind, target.kind), f"{variant} extension needs {wanted} incarnations"
            )
        bad = _homomorphism_violation(source, target, tmap)
        if bad is not None:
            raise bad

    if variant == "MEO":
        # well-definedness scan over single-step coincidences
        for (w1, g), (w2, h) in itertools.product(itertools.product(basis, source.ops), repeat=2):
            if source.act(w1, g) == source.act(w2, h):
                if target.act(alpha_bar[w1], tmap[g]) != target.act(alpha_bar[w2], tmap[h]):
                    bad = Relation(w1, w2, (g,), (h,))
                    raise HypothesisViolation(bad, f"{bad!r} holds but its image does not")
    if variant == "GEO":
        for omega in basis:
            g = _isotropy_violation(source, target, tmap, omega, alpha_bar[omega])
            if g is not None:
                raise HypothesisViolation(
                    Relation(omega, omega, (g,), ()), f"T({g.name}) does not fix the image of {omega.name}"
                )

    return _extension(source, target, basis, alpha_bar, tmap, variant)


def _extension(source, target, basis, alpha_bar, tmap, variant) -> SEO:
    """The construction of extend_from_basis, once the variant's hypotheses hold."""
    assign, conflict = _closure_pairs(source, target, alpha_bar, tmap)
    if conflict is not None:
        if variant == "SEO":
            raise HypothesisViolation(conflict, f"{conflict!r} holds but its image does not")
        raise VerificationError(conflict, "extension construction conflicted despite verified hypothesis")
    if len(assign) != len(source.dataset):
        raise HypothesisViolation(basis, "the given subset does not generate")
    return validate_seo(source, target, assign, tmap)


def enumerate_geos(source: Incarnation, omega: Measurement, target: Incarnation, operation_map: dict) -> list:
    """All group operators out of a transitive group incarnation with a fixed
    homomorphism, one per target measurement whose isotropy contains the image
    of the isotropy of omega; the hypotheses are checked once for all of them."""
    if source.kind != "group":
        raise HypothesisViolation((source.kind,), "source must be a group incarnation")
    if target.kind != "group":
        raise HypothesisViolation((target.kind,), "target must be a group incarnation")
    if len(blocks(source)) != 1:
        raise HypothesisViolation((len(blocks(source)),), "source must be transitive")
    omega = source.dataset.find(omega)
    tmap = _operation_map(source, target, operation_map)
    bad = _homomorphism_violation(source, target, tmap)
    if bad is not None:
        raise bad
    return [
        _extension(source, target, (omega,), {omega: psi}, tmap, "GEO")
        for psi in target.dataset
        if _isotropy_violation(source, target, tmap, omega, psi) is None
    ]


# ---------------------------------------------------------------------------
# decomposition into blocks


def decompose(inc: Incarnation) -> tuple:
    """Split into the disjoint union of block data sets, one domain copy each.

    Measurements are placed in their block's summand and zero elsewhere; each
    operation acts diagonally.  The resulting operator is an isomorphism.
    """
    parts = blocks(inc)
    X = inc.dataset.domain
    big = Domain([f"{bi}:{p}" for bi in range(len(parts)) for p in X])
    block_index = {m: bi for bi, blk in enumerate(parts) for m in blk}
    zeros = (Fraction(0),) * len(X)

    def embed(m: Measurement) -> Measurement:
        bi = block_index[m]
        return Measurement(big, zeros * bi + m.values + zeros * (len(parts) - 1 - bi), m.aliases)

    images = {m: embed(m) for m in inc.dataset}
    new_ds = DataSet(big, images.values())
    if len(new_ds) != len(inc.dataset):
        raise VerificationError(inc.dataset, "block embedding merged two measurements")

    def diag(g: PointMap) -> PointMap:
        return PointMap(
            big, big, {f"{bi}:{p}": f"{bi}:{g(p)}" for bi in range(len(parts)) for p in X}, g.aliases
        )

    diag_ops = {g: diag(g) for g in inc.ops}
    out = Incarnation(new_ds, diag_ops.values())
    alpha = {m: new_ds.find(image) for m, image in images.items()}
    seo = validate_seo(inc, out, alpha, diag_ops)
    if not seo.is_isomorphism:
        raise VerificationError(seo, "block decomposition is not an isomorphism")
    return out, seo
