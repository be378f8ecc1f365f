"""Exact linear algebra over a prime field F_p.

ModMatrix is a small dense matrix, immutable row tuples of ints reduced mod
p; it carries the homology maps that are composed, compared and emitted.
ColumnSolver is the one elimination routine: sparse columns (dicts from row
index to a nonzero residue), each reduced against the stored columns by its
lowest nonzero row, as in the standard persistence algorithm (Zomorodian and
Carlsson, "Computing Persistent Homology", 2005).  Ranks, kernel bases,
homology coordinates and persistence pairings are all read off it.
"""


class ModMatrix:
    __slots__ = ("p", "nrows", "ncols", "rows")

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
        return cls([[0] * ncols for _ in range(nrows)], ncols, p)

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

    def transpose(self) -> "ModMatrix":
        return ModMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
            self.p,
        )

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

    Columns are numbered in the order they are added.  A column that stays
    nonzero after reduction is stored, scaled so that its lowest nonzero row
    (its pivot) holds 1, and pivots maps that row to the column's number; no
    two stored columns share a pivot, so the stored columns are independent
    and span every column added so far.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots = {}  # pivot row -> number of the stored column
        self._stored = {}  # column number -> (reduced column, combination of added columns)
        self.n_added = 0

    def _reduce(self, col):
        """(residue, combo) with residue = col + sum(combo[k] * column k)."""
        p = self.p
        col = {i: v % p for i, v in col.items() if v % p}
        combo = {}
        while col:
            low = max(col)
            j = self.pivots.get(low)
            if j is None:
                break
            reduced, history = self._stored[j]
            f = p - col[low]
            _axpy(col, f, reduced, p)
            _axpy(combo, f, history, p)
        return col, combo

    def add(self, col):
        """Store col if it is independent of the columns added before it and
        return None.  Otherwise return its dependency relation: coefficients,
        1 at col's own number and the rest on earlier stored columns, of a
        combination of added columns that vanishes."""
        col, combo = self._reduce(col)
        idx = self.n_added
        self.n_added += 1
        combo[idx] = 1
        if not col:
            return combo
        low = max(col)
        inv = pow(col[low], self.p - 2, self.p)
        self.pivots[low] = idx
        self._stored[idx] = (
            {i: v * inv % self.p for i, v in col.items()},
            {k: v * inv % self.p for k, v in combo.items()},
        )
        return None

    def coords(self, col):
        """Coefficients over the stored columns reproducing col, or None."""
        col, combo = self._reduce(col)
        if col:
            return None
        return {k: self.p - v for k, v in combo.items()}


def kernel_basis(columns, p: int) -> list:
    """Basis of the right kernel of the matrix with these sparse columns: one
    vector per column that depends on earlier ones, with 1 there and support
    otherwise only on earlier independent columns (the reduced row echelon
    basis)."""
    solver = ColumnSolver(p)
    return [rel for rel in map(solver.add, columns) if rel is not None]
