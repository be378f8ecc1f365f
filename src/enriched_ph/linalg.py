"""Exact linear algebra over a prime field F_p.

ModMatrix is a small dense matrix, immutable row tuples of ints reduced mod
p; it carries the homology maps that are composed, compared and emitted.
ColumnSolver is the one elimination routine, keeping one reduced sparse
column (row index -> nonzero residue) per pivot, as in the standard
persistence algorithm (Zomorodian and Carlsson, "Computing Persistent
Homology", 2005).  Callers that need relations tag their columns with
identity entries on negative rows and read them off the tags a reduction
leaves, as in reducing [D; I] (Edelsbrunner and Harer, 2010).  Edges go by
components instead where they can: persistence reads degree 0, the rank of
the edge boundaries and the pairing of the edges in a filtration from the
union-find _components over the vertices, so what is eliminated here is the
columns of dimension 2 and up and the kernel bases of non-zero spaces in
degree >= 1.  The blocks of an incarnation are components of that
union-find too.
"""


class ModMatrix:
    __slots__ = ("p", "nrows", "ncols", "rows")
    _zeros = {}  # (nrows, ncols, p) -> the zero matrix of that shape

    def __init__(self, rows, ncols: int, p: int):
        self.p = p
        self.rows = tuple(tuple(v % p for v in r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, nrows: int, ncols: int, p: int) -> "ModMatrix":
        """One zero matrix per shape: it is immutable, so it serves every caller."""
        mat = cls._zeros.get((nrows, ncols, p))
        if mat is None:
            mat = cls._zeros[nrows, ncols, p] = cls._reduced(((0,) * ncols,) * nrows, ncols, p)
        return mat

    @classmethod
    def identity(cls, n: int, p: int) -> "ModMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, p)

    @classmethod
    def from_columns(cls, cols, nrows: int, p: int) -> "ModMatrix":
        rows = tuple(tuple(c[i] % p for c in cols) for i in range(nrows))
        return cls._reduced(rows, len(cols), p)

    @classmethod
    def _reduced(cls, rows: tuple, ncols: int, p: int) -> "ModMatrix":
        """A matrix of row tuples that are reduced mod p and all of length
        ncols, made without __init__'s pass over them."""
        mat = cls.__new__(cls)
        mat.p, mat.rows, mat.nrows, mat.ncols = p, rows, len(rows), ncols
        return mat

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.ncols != other.nrows or self.p != other.p:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p, ncols = self.p, other.ncols
        orows = other.rows
        out = []
        for r in self.rows:
            acc = [0] * ncols
            for k, v in enumerate(r):
                if v:
                    ork = orows[k]
                    for j in range(ncols):
                        acc[j] = (acc[j] + v * ork[j]) % p
            out.append(tuple(acc))
        return ModMatrix._reduced(tuple(out), ncols, p)

    def __eq__(self, other):
        return (
            isinstance(other, ModMatrix)
            and self.p == other.p
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.nrows, self.ncols, self.rows))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def rank(self) -> int:
        solver = ColumnSolver(self.p)
        for j in range(self.ncols):
            solver.add({i: r[j] for i, r in enumerate(self.rows) if r[j]})
        return len(solver.pivots)

    def __repr__(self):
        return f"ModMatrix({self.nrows}x{self.ncols} mod {self.p})"


def _axpy(acc: dict, f: int, col: dict, p: int) -> None:
    """acc += f * col over F_p, keeping acc free of zero entries."""
    for i, v in col.items():
        nv = (acc.get(i, 0) + f * v) % p
        if nv:
            acc[i] = nv
        else:
            del acc[i]


class ColumnSolver:
    """Incremental sparse column reduction over F_p.

    Columns are numbered in the order they are added.  A column that keeps a
    nonzero row >= 0 after reduction is stored, scaled so that its lowest such
    row (its pivot) holds 1, and pivots maps that row to the column's number.
    Rows below 0 are tags: never pivots, carried along by every reduction
    step.  A caller that needs relations tags its columns (column k with 1 at
    row -1 - k, say, through add's tag): add returns the tags left on a
    dependent column, and coords the negated tags left on a column in the
    span.  Columns may hold any integers; neither call changes the caller's
    dict.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots = {}  # pivot row -> number of the stored column
        self._stored = {}  # column number -> reduced column
        self.n_added = 0

    def _reduce(self, col, tag=None):
        """(residue, low): col, with 1 at row tag if one is given, minus its
        components along the stored columns' pivots, and the residue's lowest
        nonzero row (-1 if it is zero).  The residue is the one copy of col
        made; col itself is left as it is."""
        p = self.p
        col = {i: r for i, v in col.items() if (r := v % p)}
        if tag is not None:
            col[tag] = 1
        while col:
            low = max(col)
            j = self.pivots.get(low)
            if j is None:
                return col, low
            _axpy(col, p - col[low], self._stored[j], p)
        return col, -1

    def add(self, col, tag=None):
        """Store col, tagged with 1 at row tag if one is given, and return
        None if it is independent of the columns added before it.  Otherwise
        return the tags left on it: the tagged columns' coefficients in a
        combination that vanishes on rows >= 0."""
        col, low = self._reduce(col, tag)
        idx = self.n_added
        self.n_added += 1
        if low < 0:
            return col
        p = self.p
        inv = pow(col[low], p - 2, p)
        if inv != 1:
            for i, v in col.items():
                col[i] = v * inv % p
        self.pivots[low] = idx
        self._stored[idx] = col
        return None

    def coords(self, col):
        """Tag -> coefficient of the tagged stored columns that reproduce col
        together with untagged ones, or None if col is not in their span."""
        col, low = self._reduce(col)
        if low >= 0:
            return None
        return {t: self.p - v for t, v in col.items()}


def kernel_basis(columns, p: int) -> list:
    """Basis of the right kernel of the matrix with these sparse columns: one
    vector per column that depends on earlier ones, with 1 there and support
    otherwise only on earlier independent columns (the reduced row echelon
    basis).  Column j is tagged with row -1 - j."""
    solver = ColumnSolver(p)
    rels = (solver.add(col, -1 - j) for j, col in enumerate(columns))
    return [{-1 - t: v for t, v in rel.items()} for rel in rels if rel is not None]


def _components(n: int, edges) -> tuple:
    """Union-find on the vertices 0 .. n - 1, joined by the edges (vertex
    pairs) in order, each component rooted at its oldest (least) vertex.
    Returns each vertex's root, and for each edge the root it kills by the
    elder rule: the younger of the two roots it joins, or -1 if its ends
    were joined already (the edge closes a cycle)."""
    parent = list(range(n))
    kills = []
    for a, b in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            kills.append(-1)
        else:
            if a > b:
                a, b = b, a
            parent[b] = a
            kills.append(b)
    # every vertex's parent is older than it, so its root is already known
    roots = []
    for v, u in enumerate(parent):
        roots.append(v if u == v else roots[u])
    return roots, kills
