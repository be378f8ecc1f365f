"""A catalogue of mutants: every certificate check in the package, deleted
one at a time, must make a named test fail.

Run from anywhere, with no options:  python tests/mutants.py

Each entry names a file under src/enriched_ph, a snippet that occurs in it
exactly once, the snippet's replacement and the pytest node that must fail.
Every `raise VerificationError` and `raise SimplicialMapError` in the package
must lie inside some entry's snippet, so a check that is added or moved
needs an entry here.  The script first runs every named node on an
unmutated copy, where each must pass.  Then each mutant runs its node on a
copy of src/ and tests/ with only that snippet replaced, under
`python -O -m pytest -q -x -p no:cacheprovider NODE`, and counts as killed
only on exit code 1: some test failed.  tests/ is copied with src/ because
the tests that run a script under python -O put the src/ beside them first
on its path.  The script exits 0 when every node passes unmutated and
every mutant is killed.

pytest does not collect this file: its name does not start with test_.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "enriched_ph")
RAISE = re.compile(r"raise (VerificationError|SimplicialMapError)\(")

Mutant = namedtuple("Mutant", "file snippet replacement node")

ACT, OPS, GG, PH = "actions.py", "operators.py", "ggraph.py", "persistence.py"
T_ACT, T_OPS, T_GG, T_PH = (f"tests/test_{name}.py::" for name in ("actions", "operators", "ggraph", "persistence"))

CATALOGUE = [
    # operation sets, incarnations and blocks
    Mutant(ACT, 'raise VerificationError(PointMap.identity(domain), "the identity is not an operation")', "pass",
           T_ACT + "test_a_missing_identity_fails_the_certificate"),
    Mutant(ACT, 'raise VerificationError(tuple(ops[g] for g in bad), "operation set not closed")', "pass",
           T_ACT + "test_a_missing_composite_fails_the_certificate"),
    Mutant(ACT, 'raise VerificationError(psi, f"the block of {psi.name} is not transitive")', "pass",
           T_ACT + "test_a_block_that_is_not_transitive_fails_the_certificate"),
    # graphs and operators
    Mutant(GG, 'raise VerificationError(bad, f"vertex {bad[0]!r} lacks exactly one edge of color {bad[1]!r}")', "pass",
           T_GG + "test_an_action_out_of_the_data_set_fails_the_certificate"),
    Mutant(OPS, 'raise VerificationError((cy, cx), f"{cx} is not a candidate for {cy} in a validated operator")',
           "pass", T_OPS + "test_realization_search_names_a_changed_operation_map"),
    Mutant(OPS, 'raise VerificationError(conflict, "extension construction conflicted despite verified hypothesis")',
           "pass", T_OPS + "test_a_conflict_once_the_hypotheses_hold_fails_the_certificate"),
    Mutant(OPS, 'raise VerificationError(seo, "block decomposition is not an isomorphism")', "pass",
           T_OPS + "test_a_decomposition_that_is_not_an_isomorphism_fails_the_certificate"),
    # simplicial maps and inclusions
    Mutant(PH, 'raise SimplicialMapError(f"image of {simplex!r} is not a simplex")', "pass",
           T_PH + "test_non_simplicial_map_rejected"),
    Mutant(PH, "        verify_simplicial(src, dst, vmap)\n", "        pass\n",
           T_PH + "test_non_simplicial_map_rejected"),
    Mutant(PH, 'raise SimplicialMapError(f"inclusion of {_grade(src)} into {_grade(dst)}: the source has {fault}")',
           "pass", T_PH + "test_inclusion_refuses_grades_that_do_not_nest"),
    Mutant(PH, "        _check_nested(src, dst)\n", "        pass\n",
           T_PH + "test_inclusion_refuses_grades_that_do_not_nest"),
    Mutant(PH, "        _check_nested(src[len(dst) - 1].complex, dst[-1].complex)\n", "        pass\n",
           T_PH + "test_a_link_between_rows_that_do_not_nest_is_refused_under_python_O"),
    # the persistence grid and functor
    Mutant(PH, 'raise VerificationError(\n                        (i, j), f"internal grid square at cell {(i, j)} does not commute"\n'
               "                    )", "pass",
           T_PH + "test_one_wrong_level_map_names_its_grid_cell_under_python_O"),
    Mutant(PH, "    bp.verify_squares()\n", "    pass\n",
           T_PH + "test_one_wrong_level_map_names_its_grid_cell_under_python_O"),
    Mutant(PH, 'raise VerificationError(bad, f"persistence functor not functorial at edges {bad!r}")', "pass",
           T_PH + "test_ph_functor_names_the_edges_around_one_wrong_arrow_matrix"),
    # interleavings
    Mutant(PH, 'raise VerificationError(\n                (self.lower, self.upper), "certified lower bound exceeds the upper bound"\n'
               "            )", "pass",
           T_PH + "test_lower_bound_above_upper_is_a_verification_error"),
    Mutant(PH, 'raise VerificationError((small, big), f"sublevel {small!r} is not inside {big!r}")', "pass",
           T_PH + "test_interleave_names_the_sublevels_that_do_not_nest"),
    Mutant(PH, 'raise VerificationError((A0, B1, A2, rv[i]), "interleaving triangle does not commute")', "pass",
           T_PH + "test_interleave_names_the_first_failing_check[triangle]"),
    Mutant(PH, 'raise VerificationError((A0, B1, rv[i], rv[i + 1]), "shift maps not natural in the scale direction")',
           "pass", T_PH + "test_interleave_names_the_first_failing_check[scale-square]"),
    Mutant(PH, 'raise VerificationError((A0, A1, B0, B1, rv[i]), "shift maps not natural in the level direction")',
           "pass", T_PH + "test_interleave_names_the_first_failing_check[level-square]"),
]


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def problems_of_the_catalogue(sources) -> list:
    """Snippets that do not occur exactly once, and raise sites outside every snippet."""
    problems, covered = [], {name: [] for name in sources}
    for m in CATALOGUE:
        count = sources[m.file].count(m.snippet)
        if count != 1:
            problems.append(f"{m.file}: snippet occurs {count} times: {m.snippet!r}")
        else:
            start = sources[m.file].index(m.snippet)
            covered[m.file].append((start, start + len(m.snippet)))
    for name, text in sources.items():
        for hit in RAISE.finditer(text):
            if not any(a <= hit.start() < b for a, b in covered[name]):
                line = text.count("\n", 0, hit.start()) + 1
                problems.append(f"{name}:{line}: {hit.group(0)} has no mutant")
    return problems


def copy_checkout(into, sources, mutant=None):
    """src/ and tests/ of the checkout under into, with one mutant applied."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(into, part), ignore=ignore)
    if mutant is not None:
        with open(os.path.join(into, PACKAGE, mutant.file), "w", encoding="utf-8") as f:
            f.write(sources[mutant.file].replace(mutant.snippet, mutant.replacement))


def run_pytest(sources, nodes, mutant=None) -> int:
    with tempfile.TemporaryDirectory() as into:
        copy_checkout(into, sources, mutant)
        env = dict(os.environ, PYTHONPATH=os.path.join(into, "src"))
        cmd = [sys.executable, "-O", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
        return subprocess.run(cmd, cwd=into, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    package = os.path.join(ROOT, PACKAGE)
    sources = {name: read(os.path.join(package, name)) for name in sorted(os.listdir(package)) if name.endswith(".py")}
    problems = problems_of_the_catalogue(sources)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    nodes = sorted({m.node for m in CATALOGUE})
    code = run_pytest(sources, nodes)
    print(f"unmutated: {len(nodes)} nodes, pytest exit {code}")
    if code != 0:
        return 1
    survivors = 0
    for k, m in enumerate(CATALOGUE):
        code = run_pytest(sources, [m.node], m)
        killed = code == 1
        survivors += not killed
        first = m.snippet.strip().splitlines()[0]
        print(f"{k:2d} {'killed' if killed else f'NOT KILLED (pytest exit {code})'}: {m.file}: {first}  <- {m.node}")
    print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
