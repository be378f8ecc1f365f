"""Command-line surface.

Commands: metric, analyze, ph, seo {check,extend,realize,decompose,units},
interleave, ops {end,aut}.  All outputs are files or stdout JSON/CSV and are
byte-identical for identical inputs.  Exit codes: 0 success, 2 input error
(a file that cannot be read or written included), 3 invalid incarnation,
4 operator hypothesis violated.  The environment variable ENRICHED_PH_GUARD
overrides enumeration guards.
"""

import argparse
import contextlib
import errno
import json
import os
import sys

from .actions import (
    DEFAULT_ENUM_GUARD,
    Incarnation,
    blocks,
    enumerate_aut,
    enumerate_end,
    find_basis,
)
from .core import DataSet, ValueMap, _json_field, _json_list, _json_object, format_rational
from .errors import (
    EquivarianceError,
    GuardExceeded,
    HypothesisViolation,
    NotInvariant,
    NotOperation,
)
from .ggraph import build_graph
from .operators import (
    change_units_seo,
    decompose,
    extend_from_basis,
    find_realization,
    realization_candidates,
    validate_seo,
)
from .persistence import INF, interleaving_bounds, ph_functor, ph_grid, slice_barcode

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCARNATION = 3
EXIT_HYPOTHESIS = 4


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _guard(default: int = DEFAULT_ENUM_GUARD) -> int:
    override = os.environ.get("ENRICHED_PH_GUARD")
    if override:
        try:
            return int(override)
        except ValueError:
            raise CliError(EXIT_INPUT, f"bad ENRICHED_PH_GUARD value {override!r}")
    return default


# What a reader raises on a missing field or a field of the wrong type.
_BAD_FIELD = (KeyError, ValueError, TypeError, AttributeError)


def _message(exc) -> str:
    """An error's one-line message: a KeyError by its message, since str() gives its repr."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


def _object_field(data: dict, name: str) -> dict:
    return _json_object(_json_field(data, name), name)


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(EXIT_INPUT, f"no such file: {path}")
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_INPUT, f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(EXIT_INPUT, f"{path} must hold a JSON object, not {type(data).__name__}")
    return data


@contextlib.contextmanager
def _reading(what, path):
    """Report a missing or ill-typed field read inside as an input error naming the file."""
    try:
        yield
    except NotOperation:
        raise  # a ValueError, but main maps it to EXIT_INCARNATION
    except _BAD_FIELD as exc:
        raise CliError(EXIT_INPUT, f"bad {what} {path}: {_message(exc)}")


def _parse(cls, data, path):
    with _reading("incarnation" if cls is Incarnation else "data set", path):
        return cls.from_json_dict(data)


def _load_dataset(path) -> DataSet:
    return _parse(DataSet, _load_json(path), path)


def _load_incarnation(path) -> Incarnation:
    return _parse(Incarnation, _load_json(path), path)


def _load_dataset_or_incarnation(path):
    data = _load_json(path)
    return _parse(Incarnation if "M" in data or "dataset" in data else DataSet, data, path)


def _write(text, path):
    """The one writer: text to the file at path, or to stdout without one,
    as UTF-8 either way, whatever the locale.  _emit and _write_text both
    end here rather than in each other, so a traced run (bench/tracing.py)
    still sees each output as one write."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # what was written as text goes first
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # a text-only stream, such as an io.StringIO
        sys.stdout.write(text)


def _emit(payload, path=None):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _write_text(text, path=None):
    _write(text, path)


def cmd_metric(args) -> int:
    ds = _load_dataset(args.dataset)
    _write_text(ds.pseudometric().to_csv(), args.output)
    return EXIT_OK


def cmd_analyze(args) -> int:
    inc = _load_incarnation(args.incarnation)
    basis = find_basis(inc)
    report = {
        "kind": inc.kind,
        "blocks": [sorted(m.name for m in blk) for blk in blocks(inc)],
        "basis": sorted(m.name for m in basis),
        "dimension": len(basis),
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_ops(args) -> int:
    ds = _load_dataset(args.dataset)
    found = enumerate_end(ds, _guard()) if args.which == "end" else enumerate_aut(ds, _guard())
    payload = {f"e{i}": dict(g.mapping) for i, g in enumerate(found.ops)}
    _emit(payload, args.output)
    return EXIT_OK


def cmd_ph(args) -> int:
    obj = _load_dataset_or_incarnation(args.input)
    ds = obj.dataset if isinstance(obj, Incarnation) else obj
    m = ds.by_name(args.measurement)
    # check the later destinations before the first output, so that a bad one leaves no partial output
    if (args.functor or args.dot) and not isinstance(obj, Incarnation):
        flag = "--functor" if args.functor else "--dot"
        raise CliError(EXIT_INPUT, f"{flag} needs an incarnation input")
    if args.functor and os.path.exists(args.functor) and not os.path.isdir(args.functor):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.functor)
    if args.functor and obj.ops:  # each edge file is named after a measurement and an operation
        for name in [m.name for m in ds] + [g.name for g in obj.ops]:
            if {"/", "\0", os.sep, os.altsep} & set(name):
                raise CliError(EXIT_INPUT, f"--functor cannot name an edge file after {name!r}")
    # the grid (on stdout when nothing else is asked for) shares its evaluator with the barcodes
    bp = None
    if args.grid or not (args.barcodes or args.functor or args.dot):
        bp = ph_grid(ds, m, args.degree, args.prime)
        _emit(bp.to_json_dict(), args.grid)
    if args.barcodes:
        bp = ph_grid(ds, m, args.degree, args.prime, evaluator=bp.evaluator if bp else None)
        lines = ["r,s_birth,s_death,degree"]
        for r in bp.grid.r_values:
            for birth, death in slice_barcode(ds, m, args.degree, args.prime, r):
                dtxt = "inf" if death == INF else format_rational(death)
                lines.append(
                    f"{format_rational(r)},{format_rational(birth)},{dtxt},{args.degree}"
                )
        _write_text("\n".join(lines) + "\n", args.barcodes)
    if args.functor:
        functor = ph_functor(obj, args.degree, args.prime)
        os.makedirs(args.functor, exist_ok=True)
        graph = functor.graph
        index = {"edges": [], "objects": {}}
        for v in graph.vertices:
            index["objects"][graph.vertex_names[v]] = functor.objects[v].to_json_dict()
        for n, (a, g, b) in enumerate(graph.edges):
            arrow = functor.arrows[(a, g, b)]
            fname = f"edge_{n:03d}_{graph.vertex_names[a]}_{graph.color_names[g]}.json"
            _emit(
                {
                    "from": graph.vertex_names[a],
                    "color": graph.color_names[g],
                    "to": graph.vertex_names[b],
                    "matrices": [[list(map(list, m.rows)) for m in row] for row in arrow.mats],
                },
                os.path.join(args.functor, fname),
            )
            index["edges"].append(fname)
        _emit(index, os.path.join(args.functor, "index.json"))
    if args.dot:
        _write_text(build_graph(obj).to_dot(), args.dot)
    return EXIT_OK


def cmd_interleave(args) -> int:
    ds = _load_dataset(args.dataset)
    phi, psi = ds.by_name(args.phi), ds.by_name(args.psi)
    result = interleaving_bounds(ds, phi, psi, args.degree, args.prime)
    payload = {
        "upper": format_rational(result.upper),
        "lower": "inf" if result.lower == INF else format_rational(result.lower),
        "certificate": result.certificate,
    }
    _emit(payload, args.output)
    return EXIT_OK


def _operator_maps(data, source, target, alpha_field):
    """The measurement map in the field alpha_field and the operation map T,
    from one incarnation's names to the other's."""
    alpha = {
        source.dataset.by_name(k): target.dataset.by_name(v)
        for k, v in _object_field(data, alpha_field).items()
    }
    tmap = {source.op_by_name(k): target.op_by_name(v) for k, v in _object_field(data, "T").items()}
    return alpha, tmap


def _load_seo_maps(path, source, target):
    data = _load_json(path)
    with _reading("operator file", path):
        return _operator_maps(data, source, target, "alpha")


def cmd_seo_check(args) -> int:
    source = _load_incarnation(args.source)
    target = _load_incarnation(args.target)
    alpha, tmap = _load_seo_maps(args.seo, source, target)
    try:
        seo = validate_seo(source, target, alpha, tmap)
    except EquivarianceError as exc:
        m, g = exc.witness
        _emit(
            {
                "valid": False,
                "witness": {"measurement": getattr(m, "name", None), "operation": g.name},
                "reason": str(exc),
            },
            args.output,
        )
        return EXIT_HYPOTHESIS
    _emit(
        {
            "valid": True,
            "monoid_operator": seo.is_monoid_operator,
            "group_operator": seo.is_group_operator,
            "geometric": seo.is_geometric,
        },
        args.output,
    )
    return EXIT_OK


def cmd_seo_extend(args) -> int:
    source = _load_incarnation(args.source)
    target = _load_incarnation(args.target)
    data = _load_json(args.map)
    with _reading("extension file", args.map):
        basis = [source.dataset.by_name(n) for n in _json_list(_json_field(data, "basis"), "basis")]
        alpha_bar, tmap = _operator_maps(data, source, target, "alpha_bar")
        variant = data.get("variant", "SEO")
    try:
        seo = extend_from_basis(source, target, basis, alpha_bar, tmap, variant)
    except HypothesisViolation as exc:
        _emit({"extended": False, "reason": str(exc)}, args.output)
        return EXIT_HYPOTHESIS
    _emit({"extended": True, "seo": seo.to_json_dict()}, args.output)
    return EXIT_OK


def cmd_seo_realize(args) -> int:
    source = _load_dataset(args.source)
    target = _load_dataset(args.target)
    data = _load_json(args.alpha)
    with _reading("measurement map", args.alpha):
        alpha = {source.by_name(k): target.by_name(v) for k, v in data.items()}
    for m in source:
        if m not in alpha:
            raise CliError(EXIT_INPUT, f"measurement map is not total: missing {m.name}")
    found = find_realization(source, target, alpha)
    if found is None:
        cands = realization_candidates(source, target, alpha)
        empty = sorted(y for y, c in cands.items() if not c)
        _emit({"realizable": False, "empty_candidates_at": empty}, args.output)
    else:
        _emit({"realizable": True, "realization": found.to_json_dict()}, args.output)
    return EXIT_OK


def cmd_seo_decompose(args) -> int:
    inc = _load_incarnation(args.incarnation)
    diag, seo = decompose(inc)
    _emit(
        {
            "diagonal": diag.to_json_dict(),
            "seo": seo.to_json_dict(),
            "isomorphism": seo.is_isomorphism,
        },
        args.output,
    )
    return EXIT_OK


def cmd_seo_units(args) -> int:
    inc = _load_incarnation(args.incarnation)
    with _reading("value map", args.valuemap):
        vm = ValueMap.from_json_dict(_load_json(args.valuemap))
    out, seo = change_units_seo(vm, inc)
    _emit({"image": out.to_json_dict(), "seo": seo.to_json_dict()}, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="enriched-ph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="pseudometric of a data set as CSV")
    p.add_argument("dataset")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("analyze", help="kind, blocks, basis, dimension of an incarnation")
    p.add_argument("incarnation")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ops", help="enumerate operations of a data set")
    p.add_argument("which", choices=["end", "aut"])
    p.add_argument("dataset")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser("ph", help="bigraded persistence outputs")
    p.add_argument("input", help="data set or incarnation JSON")
    p.add_argument("-m", "--measurement", required=True)
    p.add_argument("-d", "--degree", type=int, default=0)
    p.add_argument("-p", "--prime", type=int, default=2)
    p.add_argument("--grid")
    p.add_argument("--barcodes")
    p.add_argument("--functor", help="directory for per-edge matrix files")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_ph)

    p = sub.add_parser("interleave", help="certified interleaving bounds for two measurements")
    p.add_argument("dataset")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("-d", "--degree", type=int, default=0)
    p.add_argument("-p", "--prime", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_interleave)

    seo = sub.add_parser("seo", help="operator subcommands")
    seo_sub = seo.add_subparsers(dest="seo_command", required=True)

    p = seo_sub.add_parser("check")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--seo", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_seo_check)

    p = seo_sub.add_parser("extend")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_seo_extend)

    p = seo_sub.add_parser("realize")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_seo_realize)

    p = seo_sub.add_parser("decompose")
    p.add_argument("incarnation")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_seo_decompose)

    p = seo_sub.add_parser("units")
    p.add_argument("--valuemap", required=True)
    p.add_argument("--incarnation", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_seo_units)

    return parser


# main's parser: built on the first call rather than at import, and then
# reused, since parsing leaves a parser unchanged
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotOperation as exc:
        print(
            f"error: {exc.op.name} is not an operation: moves {exc.measurement.name} out of the set",
            file=sys.stderr,
        )
        return EXIT_INCARNATION
    except (EquivarianceError, HypothesisViolation, NotInvariant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (KeyError, ValueError, GuardExceeded, OSError) as exc:
        # OSError: an input that cannot be read or an output that cannot be written
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
