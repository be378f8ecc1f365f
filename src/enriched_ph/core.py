"""Finite data sets of exact rational measurements.

A data set is a finite set of functions ("measurements") from a fixed finite
domain into the rationals.  Measurements are extensional: two of them are the
same element of the set exactly when their value vectors coincide, and any
user-supplied names are kept only as aliases.  All values are
``fractions.Fraction``, so distances, thresholds and grids computed downstream
are bit-exact.

Everything constructed here is immutable after construction and safe to share
across threads.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatch, ValueMapMiss


def parse_rational(value) -> Fraction:
    """Accept "p/q" or decimal strings, ints, and exact-decimal floats.

    Anything else, booleans and a zero denominator included, raises
    ValueError.  Plain ASCII "a", "-a" and "a/b" strings with b nonzero are
    read with int(); every other string goes through Fraction(str), as do
    the errors.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (
            not slash or den.isascii() and den.isdigit() and den.strip("0")
        ):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot read rational from {value!r}")


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Domain:
    """Ordered finite set of distinct point identifiers."""

    __slots__ = ("points", "_index")

    def __init__(self, points):
        pts = tuple(str(p) for p in points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate point identifiers in domain")
        self.points = pts
        self._index = {p: i for i, p in enumerate(pts)}

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"point {point!r} not in domain") from None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        return point in self._index

    def __eq__(self, other):
        return isinstance(other, Domain) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"Domain({list(self.points)!r})"


class Measurement:
    """One rational value per domain point; identity is the value vector.

    The hash is computed on first use and kept: a measurement never changes,
    and two threads filling it write the same value.
    """

    __slots__ = ("domain", "values", "aliases", "_hash")

    def __init__(self, domain: Domain, values, aliases=()):
        self.domain = domain
        vals = tuple(parse_rational(v) for v in values)
        if len(vals) != len(domain):
            raise ValueError(f"value vector of length {len(vals)} on a domain of {len(domain)} points")
        self.values = vals
        self.aliases = tuple(aliases)
        self._hash = None

    @property
    def name(self) -> str:
        return self.aliases[0] if self.aliases else "<" + ",".join(map(format_rational, self.values)) + ">"

    def at(self, point: str) -> Fraction:
        return self.values[self.domain.index(point)]

    def compose(self, g: "PointMap") -> "Measurement":
        """Precompose with a point map g: Y -> X, yielding a measurement on Y."""
        if g.target != self.domain:
            raise DomainMismatch("point map target differs from measurement domain")
        return Measurement(g.source, tuple(self.at(g(y)) for y in g.source), self.aliases)

    def with_aliases(self, aliases) -> "Measurement":
        return Measurement(self.domain, self.values, tuple(aliases))

    def __eq__(self, other):
        return (
            isinstance(other, Measurement)
            and self.domain == other.domain
            and self.values == other.values
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.domain, self.values))
        return h

    def __reduce__(self):
        # rebuilt, not copied slot by slot: string hashes differ between processes
        return Measurement, (self.domain, self.values, self.aliases)

    def __repr__(self):
        return f"Measurement({self.name}: {tuple(map(format_rational, self.values))})"


class PointMap:
    """Total function between two domains; images holds each source point's
    image as its index in the target domain, and equality and hash read it."""

    __slots__ = ("source", "target", "mapping", "images", "aliases")

    def __init__(self, source: Domain, target: Domain, mapping, aliases=()):
        self.source = source
        self.target = target
        mp = {str(k): str(v) for k, v in dict(mapping).items()}
        if set(mp) != set(source.points):
            x = next(x for x in (*source.points, *mp) if (x in mp) != (x in source))
            why = f"no image for {x!r}" if x in source else f"{x!r} is not a source point"
            raise ValueError(f"map must be total on the source domain: {why}")
        for v in mp.values():
            if v not in target:
                raise ValueError(f"image point {v!r} not in target domain")
        self.mapping = mp
        self.images = tuple(target._index[mp[p]] for p in source.points)
        self.aliases = tuple(aliases)

    @classmethod
    def identity(cls, domain: Domain) -> "PointMap":
        return cls(domain, domain, {p: p for p in domain}, aliases=("id",))

    @property
    def name(self) -> str:
        if self.aliases:
            return self.aliases[0]
        return "(" + ",".join(f"{p}>{self.mapping[p]}" for p in self.source) + ")"

    def __call__(self, point: str) -> str:
        return self.mapping[point]

    def image_tuple(self):
        return tuple(self.mapping[p] for p in self.source)

    def compose(self, other: "PointMap") -> "PointMap":
        """self after other: x -> self(other(x))."""
        if other.target != self.source:
            raise DomainMismatch("point maps not composable")
        return PointMap(other.source, self.target, {p: self(other(p)) for p in other.source})

    __mul__ = compose

    @property
    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.source) == len(self.target)

    def inverse(self) -> "PointMap":
        if not self.is_bijective:
            raise ValueError("point map is not bijective")
        return PointMap(self.target, self.source, {v: k for k, v in self.mapping.items()})

    def with_aliases(self, aliases) -> "PointMap":
        return PointMap(self.source, self.target, self.mapping, tuple(aliases))

    def __eq__(self, other):
        return (
            isinstance(other, PointMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        return f"PointMap({self.name})"

    def to_json_dict(self) -> dict:
        return {
            "source": list(self.source.points),
            "target": list(self.target.points),
            "map": dict(self.mapping),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PointMap":
        source, target = (Domain(_json_field(data, end)) for end in ("source", "target"))
        return cls(source, target, _json_field(data, "map"))


class PseudometricMatrix:
    """Symmetric, zero-diagonal matrix of exact distances on an ordered point set."""

    __slots__ = ("points", "rows", "_index")

    def __init__(self, points, rows):
        self.points = tuple(points)
        self.rows = tuple(tuple(r) for r in rows)
        self._index = {p: i for i, p in enumerate(self.points)}
        n = len(self.points)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix shape does not match point count")
        for i in range(n):
            if self.rows[i][i] != 0:
                raise ValueError("nonzero diagonal")
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix not symmetric")

    def at(self, x: str, y: str) -> Fraction:
        return self.rows[self._index[x]][self._index[y]]

    def satisfies_triangle(self) -> bool:
        n = len(self.points)
        return all(
            self.rows[i][j] <= self.rows[i][k] + self.rows[k][j]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def distinct_values(self):
        return sorted({v for row in self.rows for v in row})

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.points)]
        for p, row in zip(self.points, self.rows):
            lines.append(p + "," + ",".join(format_rational(v) for v in row))
        return "\n".join(lines) + "\n"


class DataSet:
    """Deduplicated finite set of measurements over one domain.

    A measurement's code is its values as integer numerators over the
    denominator, the lcm of all the values' denominators (1 without values).
    Deduplication, naming and the canonical order (lexicographic on value
    vectors, which every enumeration in the package iterates in) go by
    codes, and _codes maps each code to its stored measurement in that
    order.  Empty data sets are rejected unless allow_empty is set.

    A data set never changes after it is built, so it keeps what is derived
    from it: the pseudometric, and (_slices) the persistence index that
    persistence builds on first use, or None before.  Every evaluator and
    every bottleneck_lower call on this data set share that index.

    Measurements are looked up by the measurement itself, which keeps its
    hash, so an equal value vector over another domain is not found.  The
    operation search and checks read _codes instead.
    """

    __slots__ = (
        "domain", "measurements", "allow_empty", "denominator", "_by_alias", "_by_values", "_codes", "_metric", "_slices",
    )

    def __init__(self, domain: Domain, measurements, allow_empty: bool = False):
        self.domain = domain
        self.allow_empty = bool(allow_empty)
        found = []
        for m in measurements:
            if not isinstance(m, Measurement):
                name, values = m
                m = Measurement(domain, values, (name,) if name else ())
            if m.domain != domain:
                raise DomainMismatch("measurement domain differs from data set domain")
            found.append(m)
        if not found and not self.allow_empty:
            raise ValueError("empty data set (pass allow_empty=True to permit)")
        den = self.denominator = math.lcm(*(v.denominator for m in found for v in m.values))
        codes = [tuple(v.numerator * (den // v.denominator) for v in m.values) for m in found]
        values = dict(zip(codes, (m.values for m in found)))
        named = _name(zip(codes, (m.aliases for m in found)), "m", "value vectors")
        self._codes = {code: Measurement(domain, values[code], aliases) for code, aliases in named}
        self.measurements = tuple(self._codes.values())
        self._by_alias = {a: m for m in self.measurements for a in m.aliases}
        self._by_values = {m: m for m in self.measurements}
        self._metric = None
        self._slices = None

    def __len__(self):
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    def __contains__(self, m):
        return isinstance(m, Measurement) and m in self._by_values

    def find(self, m: Measurement) -> Measurement:
        """Return the stored (alias-carrying) copy with m's domain and values."""
        try:
            return self._by_values[m]
        except KeyError:
            raise KeyError(f"measurement {m!r} not in data set") from None

    def by_name(self, name: str) -> Measurement:
        if not isinstance(name, str):
            raise TypeError(f"measurement names are strings, not {type(name).__name__}")
        try:
            return self._by_alias[name]
        except KeyError:
            raise KeyError(f"no measurement named {name!r}") from None

    def names(self):
        return tuple(m.name for m in self.measurements)

    def pseudometric(self) -> PseudometricMatrix:
        """Max over measurements of coordinatewise differences; zero matrix if empty."""
        if self._metric is None:
            n, den = len(self.domain), self.denominator
            rows = [
                [Fraction(max((abs(c[i] - c[j]) for c in self._codes), default=0), den) for j in range(n)]
                for i in range(n)
            ]
            self._metric = PseudometricMatrix(self.domain.points, rows)
        return self._metric

    def __eq__(self, other):
        return (
            isinstance(other, DataSet)
            and self.domain == other.domain
            and [m.values for m in self.measurements] == [m.values for m in other.measurements]
        )

    def __hash__(self):
        return hash((self.domain, tuple(m.values for m in self.measurements)))

    def __repr__(self):
        return f"DataSet({len(self)} measurements on {len(self.domain)} points)"

    def to_json_dict(self) -> dict:
        out = {
            "domain": list(self.domain.points),
            "measurements": {
                m.name: [format_rational(v) for v in m.values] for m in self.measurements
            },
        }
        if self.allow_empty:
            out["allow_empty"] = True
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DataSet":
        """Read to_json_dict's shape; the domain and each value vector must be
        lists, so a string is not split into characters, each domain entry a
        string or a number, each measurement name non-empty, and allow_empty
        a boolean."""
        points = _json_list(_json_field(data, "domain"), "domain")
        for p in points:
            if isinstance(p, (list, dict, bool)) or p is None:
                raise TypeError(
                    f"domain entries must be strings or numbers, not {type(p).__name__}"
                )
        ms = _json_object(data.get("measurements", {}), "measurements")
        if "" in ms:  # the constructor would read it as no name
            raise ValueError("a measurement name is empty")
        ms = [(name, _json_list(vals, f"measurement {name!r}")) for name, vals in ms.items()]
        allow_empty = data.get("allow_empty", False)
        if not isinstance(allow_empty, bool):
            raise TypeError(f"allow_empty must be a JSON boolean, not {type(allow_empty).__name__}")
        return cls(Domain(points), ms, allow_empty=allow_empty)


def _name(found, prefix: str, what: str, preferred=None) -> list:
    """(key, aliases) for each distinct key of the (key, aliases) pairs found,
    in sorted key order.

    Equal keys pool their aliases in order of appearance, and a name given to
    two keys raises ValueError.  A key left without a name takes preferred's
    name if preferred is (that key, a free name), and otherwise the name
    <prefix><k> with the least k not yet taken.
    """
    pooled: dict = {}
    for key, aliases in found:
        pooled.setdefault(key, {}).update(dict.fromkeys(aliases))
    owner: dict = {}
    for key, aliases in pooled.items():
        for a in aliases:
            if owner.setdefault(a, key) != key:
                raise ValueError(f"name {a!r} bound to two different {what}")
    named, fresh = [], (f"{prefix}{k}" for k in itertools.count())
    for key in sorted(pooled):
        aliases = tuple(pooled[key])
        if not aliases:
            free = preferred is not None and preferred[0] == key and preferred[1] not in owner
            aliases = (preferred[1] if free else next(a for a in fresh if a not in owner),)
            owner[aliases[0]] = key
        named.append((key, aliases))
    return named


def _json_field(data: dict, name: str):
    """A required field of a JSON object; a missing one raises a KeyError naming it."""
    try:
        return data[name]
    except KeyError:
        raise KeyError(f"missing field {name!r}") from None


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def sup_distance(phi: Measurement, psi: Measurement) -> Fraction:
    """Largest coordinatewise difference between two measurements."""
    if phi.domain != psi.domain:
        raise DomainMismatch("measurements live on different domains")
    if not phi.values:
        raise ValueError("empty domain: measurements without values have no sup distance")
    return max(abs(a - b) for a, b in zip(phi.values, psi.values))


def pseudometric(dataset: DataSet) -> PseudometricMatrix:
    return dataset.pseudometric()


# ---------------------------------------------------------------------------
# coproduct / product

LEFT_TAG = "L:"
RIGHT_TAG = "R:"


def _tagged_union(x: Domain, y: Domain) -> Domain:
    return Domain([LEFT_TAG + p for p in x] + [RIGHT_TAG + p for p in y])


@dataclass(frozen=True)
class CoproductResult:
    dataset: DataSet
    left: dict  # measurement of the left factor -> its image
    right: dict


@dataclass(frozen=True)
class ProductResult:
    dataset: DataSet
    proj_left: dict  # product measurement -> left component
    proj_right: dict
    pairs: dict  # (left, right) -> product measurement


def coproduct(a: DataSet, b: DataSet) -> CoproductResult:
    """Disjoint-union domain; each measurement extended by zero on the other side.

    Coinciding extensions (possible only when both factors contain the zero
    measurement) are merged, since data sets are genuine sets.
    """
    union = _tagged_union(a.domain, b.domain)
    zeros_a, zeros_b = (Fraction(0),) * len(a.domain), (Fraction(0),) * len(b.domain)
    left = {phi: Measurement(union, phi.values + zeros_b, (LEFT_TAG + phi.name,)) for phi in a}
    right = {psi: Measurement(union, zeros_a + psi.values, (RIGHT_TAG + psi.name,)) for psi in b}
    allow = a.allow_empty or b.allow_empty
    ds = DataSet(union, [*left.values(), *right.values()], allow_empty=allow)
    left = {phi: ds.find(m) for phi, m in left.items()}
    right = {psi: ds.find(m) for psi, m in right.items()}
    return CoproductResult(ds, left, right)


def product(a: DataSet, b: DataSet) -> ProductResult:
    """Disjoint-union domain; measurements are all two-sided combinations."""
    union = _tagged_union(a.domain, b.domain)
    images = {
        (phi, psi): Measurement(union, phi.values + psi.values, (f"{phi.name}+{psi.name}",))
        for phi, psi in itertools.product(a, b)
    }
    allow = (a.allow_empty or b.allow_empty) and not images
    ds = DataSet(union, images.values(), allow_empty=allow)
    pairs = {key: ds.find(m) for key, m in images.items()}
    # restriction to a factor recovers the component, so projections are total
    proj_left = {m: phi for (phi, _), m in pairs.items()}
    proj_right = {m: psi for (_, psi), m in pairs.items()}
    return ProductResult(ds, proj_left, proj_right, pairs)


def copair(cp: CoproductResult, alpha: dict, beta: dict) -> dict:
    """The unique map out of a coproduct restricting to alpha and beta.

    If deduplication glued a left and a right measurement together, alpha and
    beta must agree there; otherwise no such map exists and a ValueError names
    the clash.
    """
    mu: dict = {}
    for phi, image in cp.left.items():
        mu[image] = alpha[phi]
    for psi, image in cp.right.items():
        if image in mu and mu[image] != beta[psi]:
            raise ValueError(
                f"coproduct legs collide at {image.name} with alpha != beta; no factorization"
            )
        mu[image] = beta[psi]
    return mu


def pair(pr: ProductResult, alpha: dict, beta: dict) -> dict:
    """The unique map into a product with the prescribed components."""
    return {pi: pr.pairs[(alpha[pi], beta[pi])] for pi in alpha}


def coproduct_point_map(f1: PointMap, f2: PointMap) -> PointMap:
    """f1 + f2 between tagged disjoint unions."""
    src = _tagged_union(f1.source, f2.source)
    tgt = _tagged_union(f1.target, f2.target)
    mapping = {LEFT_TAG + p: LEFT_TAG + f1(p) for p in f1.source}
    mapping.update({RIGHT_TAG + p: RIGHT_TAG + f2(p) for p in f2.source})
    return PointMap(src, tgt, mapping)


# ---------------------------------------------------------------------------
# value maps and the two change operations


class ValueMap:
    """Rational-to-rational reparametrization: a builtin or a finite table.

    Builtins: negate; affine(a, b) sending q to a*q + b; clamp-sign sending
    negatives to -1 and everything else to 1.  Explicit tables must cover
    every value they are applied to.
    """

    __slots__ = ("kind", "a", "b", "table")

    def __init__(self, kind: str, a=None, b=None, table=None):
        if kind not in ("negate", "affine", "clamp-sign", "table"):
            raise ValueError(f"unknown value map kind {kind!r}")
        self.kind = kind
        self.a = parse_rational(a) if a is not None else None
        self.b = parse_rational(b) if b is not None else None
        self.table = None
        if kind == "affine" and (self.a is None or self.b is None):
            raise ValueError("affine value map needs coefficients a and b")
        if kind == "table":
            if table is None:
                raise ValueError("table value map needs a table")
            self.table = {parse_rational(k): parse_rational(v) for k, v in dict(table).items()}

    @classmethod
    def negate(cls) -> "ValueMap":
        return cls("negate")

    @classmethod
    def affine(cls, a, b) -> "ValueMap":
        return cls("affine", a=a, b=b)

    @classmethod
    def clamp_sign(cls) -> "ValueMap":
        return cls("clamp-sign")

    @classmethod
    def from_table(cls, table) -> "ValueMap":
        return cls("table", table=table)

    def apply(self, q) -> Fraction:
        q = parse_rational(q)
        if self.kind == "negate":
            return -q
        if self.kind == "affine":
            return self.a * q + self.b
        if self.kind == "clamp-sign":
            return Fraction(-1) if q < 0 else Fraction(1)
        try:
            return self.table[q]
        except KeyError:
            raise ValueMapMiss(f"table has no entry for {format_rational(q)}") from None

    __call__ = apply

    @property
    def is_invertible(self) -> bool:
        if self.kind == "negate":
            return True
        if self.kind == "affine":
            return self.a != 0
        if self.kind == "table":
            return len(set(self.table.values())) == len(self.table)
        return False

    def inverse(self) -> "ValueMap":
        if self.kind == "negate":
            return ValueMap.negate()
        if self.kind == "affine" and self.a != 0:
            return ValueMap.affine(1 / self.a, -self.b / self.a)
        if self.kind == "table" and self.is_invertible:
            return ValueMap.from_table({v: k for k, v in self.table.items()})
        raise ValueError(f"value map of kind {self.kind!r} is not invertible")

    def to_json_dict(self) -> dict:
        if self.kind == "table":
            return {"table": {format_rational(k): format_rational(v) for k, v in self.table.items()}}
        if self.kind == "affine":
            return {"builtin": "affine", "a": format_rational(self.a), "b": format_rational(self.b)}
        return {"builtin": self.kind}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ValueMap":
        if "table" in data:
            return cls.from_table(_json_object(data["table"], "table"))
        builtin = _json_field(data, "builtin")
        if builtin == "affine":
            return cls.affine(_json_field(data, "a"), _json_field(data, "b"))
        return cls(builtin)

    def __repr__(self):
        return f"ValueMap({self.kind})"


def change_units(f: ValueMap, dataset: DataSet) -> tuple:
    """Apply f to every value; returns (f Phi, map phi -> f phi)."""
    images = {m: Measurement(dataset.domain, tuple(map(f, m.values)), m.aliases) for m in dataset}
    ds = DataSet(dataset.domain, images.values(), allow_empty=dataset.allow_empty)
    return ds, {m: ds.find(image) for m, image in images.items()}


def domain_change(dataset: DataSet, f: PointMap) -> tuple:
    """Precompose every measurement with f: Y -> X; returns (Phi f, map phi -> phi f)."""
    if f.target != dataset.domain:
        raise DomainMismatch("point map target differs from data set domain")
    images = {m: m.compose(f) for m in dataset}
    ds = DataSet(f.source, images.values(), allow_empty=dataset.allow_empty)
    return ds, {m: ds.find(image) for m, image in images.items()}
