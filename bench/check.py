"""Output checks, independent of the library and of the test suite.

Every check reads the job's output bytes and the generated input, and returns
a list of problems; an empty list means the job passed.  The grid check also
recomputes sampled cells with a from-scratch homology-rank oracle.
"""

import csv
import io
import itertools
import json
import random
from fractions import Fraction

PRIME = 2  # the CLI default; every workload runs with it


def _vectors(spec: dict) -> dict:
    return {name: tuple(Fraction(v) for v in vals) for name, vals in spec["measurements"].items()}


def _metric(spec: dict) -> dict:
    vecs = list(_vectors(spec).values())
    pts = spec["domain"]
    return {
        (a, b): max(abs(v[i] - v[j]) for v in vecs)
        for i, a in enumerate(pts)
        for j, b in enumerate(pts)
    }


def _rank(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_betti(points, dist, r, degree: int, p: int = PRIME) -> int:
    """dim H_degree of the Vietoris-Rips complex at scale r, from scratch."""

    def level(k):
        if k < 0:
            return []
        return [
            c
            for c in itertools.combinations(points, k + 1)
            if all(dist[a, b] <= r for a, b in itertools.combinations(c, 2))
        ]

    def boundary_rank(k):
        cols, rows = level(k), level(k - 1)
        if not cols or not rows:
            return 0
        index = {s: i for i, s in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                mat[index[s[:i] + s[i + 1:]]][j] = (-1) ** i % p
        return _rank(mat, p)

    return len(level(degree)) - boundary_rank(degree) - boundary_rank(degree + 1)


def _death(text: str):
    return None if text == "inf" else Fraction(text)


def check_grid(item: dict, outputs: dict, index: int, degree: int = 1) -> list:
    spec = item["dataset"]
    try:
        grid = json.loads(outputs["grid.json"])
        rows = list(csv.reader(io.StringIO(outputs["bars.csv"].decode())))
        rs = [Fraction(v) for v in grid["r"]]
        ss = [Fraction(v) for v in grid["s"]]
        dims = grid["dims"]
        bars = [(Fraction(r), Fraction(b), _death(d), int(k)) for r, b, d, k in rows[1:]]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable grid output: {exc!r}"]
    problems = []
    if rows[0] != ["r", "s_birth", "s_death", "degree"]:
        problems.append("barcode header changed")
    dist = _metric(spec)
    phi = _vectors(spec)["f0"]
    if rs != sorted(set(dist.values()) | {Fraction(0)}):
        problems.append("r grid is not the distinct distances")
    if ss != [min(phi) - 1] + sorted(set(phi)):
        problems.append("s grid is not the sentinel plus the distinct values")
    if len(dims) != len(rs) or any(len(row) != len(ss) for row in dims):
        return problems + ["dims shape does not match the grid"]
    if any(k != degree for *_, k in bars):
        problems.append("barcode row in the wrong degree")
    for i, r in enumerate(rs):
        at_r = [(b, d) for rr, b, d, _ in bars if rr == r]
        for j, s in enumerate(ss):
            alive = sum(1 for b, d in at_r if b <= s and (d is None or s < d))
            if alive != dims[i][j]:
                problems.append(f"dims[{i}][{j}] = {dims[i][j]} but {alive} bars alive")
    rng = random.Random(f"enriched-ph-bench/oracle/{index}")
    for _ in range(2):
        i, j = rng.randrange(len(rs)), rng.randrange(len(ss))
        pts = [x for x, v in zip(spec["domain"], phi) if v <= ss[j]]
        if oracle_betti(pts, dist, rs[i], degree) != dims[i][j]:
            problems.append(f"dims[{i}][{j}] disagrees with the oracle")
    return problems


def check_interleave(item: dict, record: list) -> list:
    vecs = _vectors(item["dataset"])
    names = sorted(vecs, key=vecs.get)
    want = [(a, b, d) for a, b in itertools.combinations(names, 2) for d in (0, 1)]
    problems = []
    try:
        got = [(row["phi"], row["psi"], row["degree"]) for row in record]
        if got != want:
            return ["record does not cover every pair and degree once"]
        for row in record:
            eps = max(abs(x - y) for x, y in zip(vecs[row["phi"]], vecs[row["psi"]]))
            upper = Fraction(row["upper"])
            if upper != eps:
                problems.append(f"{row['phi']},{row['psi']},d{row['degree']}: upper {upper} != {eps}")
            if row["lower"] == "inf" or Fraction(row["lower"]) > upper:
                problems.append(f"{row['phi']},{row['psi']},d{row['degree']}: lower > upper")
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable interleave record: {exc!r}"]
    return problems


def _is_operation(vecs, pts, mapping) -> bool:
    index = {x: i for i, x in enumerate(pts)}
    image = [index[mapping[x]] for x in pts]
    return all(tuple(v[k] for k in image) in vecs for v in vecs)


def check_structure(item: dict, outputs: dict) -> list:
    spec = item["dataset"]
    pts = spec["domain"]
    vecs = set(_vectors(spec).values())
    names = set(spec["measurements"])
    try:
        end = json.loads(outputs["end.json"])
        aut = json.loads(outputs["aut.json"])
        analyses = {k: json.loads(outputs[k]) for k in ("an_univ.json", "an_inc.json")}
        extend = json.loads(outputs["extend.json"])
        decomposed = json.loads(outputs["decompose.json"])
        index = json.loads(outputs["functor/index.json"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable structure output: {exc!r}"]
    problems = []
    ident = {x: x for x in pts}
    if ident not in end.values():
        problems.append("identity missing from the enumerated operations")
    for name, mapping in list(end.items()) + list(aut.items()):
        if not _is_operation(vecs, pts, mapping):
            problems.append(f"{name} moves a measurement out of the set")
    if any(sorted(m.values()) != sorted(pts) for m in aut.values()):
        problems.append("an automorphism is not a bijection")
    for key, report in analyses.items():
        if report["dimension"] != len(report["basis"]):
            problems.append(f"{key}: dimension != len(basis)")
        if sorted(m for blk in report["blocks"] for m in blk) != sorted(names):
            problems.append(f"{key}: blocks do not partition the measurements")
    if decomposed.get("isomorphism") is not True:
        problems.append("decompose did not report an isomorphism")
    seo = extend.get("seo", {})
    if not extend.get("extended"):
        problems.append("extension from the basis failed")
    elif set(seo["alpha"]) != names or any(k != v for k, v in seo["alpha"].items()):
        problems.append("extended operator is not the identity on measurements")
    elif any(k != v for k, v in seo["T"].items()):
        problems.append("extended operator is not the identity on operations")
    if set(index.get("objects", {})) != names:
        problems.append("functor index does not list every measurement")
    return problems


def check(workload: str, item: dict, outputs: dict, value, index: int) -> list:
    if workload == "grid":
        return check_grid(item, outputs, index)
    if workload == "interleave":
        return check_interleave(item, value)
    return check_structure(item, outputs)
