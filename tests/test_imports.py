"""Every name a package module imports is read somewhere in its scope, and
each command loads only the modules it uses.

An import left behind by a deletion keeps a dependency alive that nothing
needs; this scan catches it without a linter.  A name imported at top level
must be read somewhere in the module, one imported inside a function must be
read in that function.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scattree

PACKAGE = Path(scattree.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(statements):
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _own_statements(function):
    """Every node in the body of `function`, not entering nested functions."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _read(scope):
    return {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(source):
    tree = ast.parse(source)
    scopes = [(tree, tree.body)] + [
        (node, _own_statements(node)) for node in ast.walk(tree) if isinstance(node, FUNCTIONS)
    ]
    unused = []
    for scope, statements in scopes:
        read = _read(scope)
        unused.extend(name for name in _imported(statements) if name not in read)
    return sorted(unused)


def test_scan_finds_an_unused_import():
    assert unused_imports("import re\nfrom math import lcm, gcd\nx = lcm(2, 3)\n") == ["gcd", "re"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    # a function-local import must be read in its own function
    local = "def f():\n    from math import lcm\n    return 1\n\ndef g():\n    return lcm(2, 3)\n"
    assert unused_imports(local) == ["lcm"]
    assert unused_imports("def f():\n    if True:\n        import re\n        return re.escape('a')\n") == []


def test_package_modules_read_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


# -- what each command loads ----------------------------------------------------

# run one command in a fresh interpreter and list the modules it loaded
PROBE = """
import json, sys
before = set(sys.modules)
from scattree import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(set(sys.modules) - before)))
"""

COMMANDS = (
    ["--help"],
    ["oracle", "counts"],
    ["rank", "ex3"],
    ["examples"],
    ["analyze", "ex1"],
    ["analyze", "sup(succ(succ(box))*2,supseq(patch([](box);4:succ(box))))"],
    ["analyze", "lpath oneway poset{0<a} prefix[] cycle(0,a)"],
    ["twins", "ex1", "--count", "2", "--seed", "3"],
    ["twins", "lpath oneway poset{a,b} prefix[] cycle(a,b)"],
    ["truncate", "ray", "--depth", "3"],
    ["rank", "wsum("],
)


def loaded_by(argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def loaded():
    return {tuple(argv): loaded_by(argv) for argv in COMMANDS}


def test_help_loads_no_analysis_module(loaded):
    names = loaded[("--help",)]
    assert {name for name in names if name.split(".")[0] == "scattree"} == {"scattree", "scattree.cli"}


def test_oracle_loads_no_term_module(loaded):
    names = loaded[("oracle", "counts")]
    assert "scattree.oracle" in names
    for module in ("terms", "ranks", "ends", "stability", "twins"):
        assert f"scattree.{module}" not in names


def test_rank_loads_no_later_stage(loaded):
    names = loaded[("rank", "ex3")]
    assert "scattree.ranks" in names
    for module in ("embedding", "cuts", "finite_trees", "ends", "stability", "twins", "oracle"):
        assert f"scattree.{module}" not in names


def test_analyze_loads_the_layers_its_term_needs(loaded):
    # a finite tree's center is found on its term: nothing is embedded,
    # cut or expanded
    names = loaded[("analyze", "sup(succ(succ(box))*2,supseq(patch([](box);4:succ(box))))")]
    assert "scattree.stability" in names
    for module in ("embedding", "cuts", "finite_trees", "ends"):
        assert f"scattree.{module}" not in names
    # a spined sum's shift analysis embeds components, but cuts nothing
    names = loaded[("analyze", "ex1")]
    assert {"scattree.ends", "scattree.embedding"} <= names
    for module in ("cuts", "finite_trees"):
        assert f"scattree.{module}" not in names


def test_twins_loads_the_layers_its_input_needs(loaded):
    # a labelled path is counted on its labels: nothing is embedded or cut
    names = loaded[("twins", "lpath oneway poset{a,b} prefix[] cycle(a,b)")]
    assert "scattree.twins" in names
    for module in ("cuts", "embedding", "finite_trees"):
        assert f"scattree.{module}" not in names
    # a term's family is verified on symbolic cut codes: no finite tree is built
    names = loaded[("twins", "ex1", "--count", "2", "--seed", "3")]
    assert {"scattree.cuts", "scattree.embedding"} <= names
    assert "scattree.finite_trees" not in names


def test_truncate_loads_no_embedding(loaded):
    names = loaded[("truncate", "ray", "--depth", "3")]
    assert {"scattree.cuts", "scattree.finite_trees"} <= names
    for module in ("embedding", "ranks"):
        assert f"scattree.{module}" not in names


def test_analysis_layers_import_nothing_from_finite_trees():
    """`finite_trees` is an oracle for the analysis, not a part of it: only
    `cuts` builds its trees, and no analysis layer imports `cuts`."""
    for name in ("terms", "ranks", "ends", "stability"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not imported & {"finite_trees", "cuts"}, name
    assert "expand_finite" not in _read(ast.parse((PACKAGE / "stability.py").read_text()))


def test_no_command_loads_dataclasses(loaded):
    assert [argv for argv, names in loaded.items() if "dataclasses" in names] == []


# the names `scattree` exported when it imported every submodule eagerly, by
# the module that defines them
EXPORTS = {
    "ordinals": "NotASuccessorError Ordinal OMEGA ONE ZERO format_ordinal parse_ordinal",
    "finite_trees": "EndoClassification FiniteTree RootedFiniteTree TreeError automorphisms "
    "canonical_code center classify_automorphism is_isomorphic iter_automorphisms path_tree "
    "rooted_embeds star_tree unrooted_code",
    "terms": "BOX Box ComponentSeq Context Generated NO Patched Periodic Succ Sup SupSeq Term "
    "TermError UNKNOWN WSum YES address_distance builtins format_term height is_rayless "
    "join_address level parse_term resolve resolve_name shift_seq spine_address stage "
    "vertex_count",
    "embedding": "embeds equimorphic",
    "cuts": "Truncation expand_finite truncate truncation_dot truncation_json",
    "ranks": "MANY RankSummary RankUndecided build_rank_witness lim_member rank_summary",
    "ends": "OriginUndefined ShiftReport origin_vertex regular_components shift_report",
    "stability": "StabilityCertificate classify twin_cardinality",
    "twins": "LabelledPath Poset almost_disjoint_family analyze_lpath displacements "
    "enumerate_lpath_twins format_lpath least_shift_period lpath_embeds lpath_equimorphic "
    "lpath_twin_count parse_lpath same_labelling shift_feasible twin_from_subset twin_n "
    "verify_twins",
    "oracle": "FREE_COUNTS ROOTED_COUNTS OracleError cayley_identity center_fixed_check "
    "embed_cross_check endo_classification_sweep equimorphy_is_isomorphy free_trees "
    "naive_automorphisms naive_rooted_embeds prufer_cross_check prufer_tree rooted_trees "
    "run_oracle unrooted_embeds",
}


def test_every_export_resolves_to_its_module_attribute():
    exported = []
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"scattree.{module_name}")
        for name in names.split():
            scope = {}
            exec(f"from scattree import {name}", scope)
            assert scope[name] is getattr(module, name), name
            exported.append(name)
    assert sorted(scattree.__all__) == sorted(exported)
    assert scattree.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        scattree.no_such_name


def test_terms_reexports_the_later_layers_on_first_access():
    """`terms` names what `embedding` and `cuts` define without loading them:
    the first access loads the defining module and binds the name, so it
    stays one object under every path."""
    probe = (
        "import sys\n"
        "from scattree import terms\n"
        "assert 'scattree.embedding' not in sys.modules and 'scattree.cuts' not in sys.modules\n"
        "embeds = terms.embeds\n"
        "assert 'scattree.cuts' not in sys.modules and 'embeds' in vars(terms)\n"
        "from scattree import cuts, embedding\n"
        "assert embeds is embedding.embeds and terms.truncate is cuts.truncate\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    from scattree import terms

    for module, names in terms._LATER.items():
        home = importlib.import_module(f"scattree.{module}")
        for name in names:
            assert getattr(terms, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        terms.no_such_name
