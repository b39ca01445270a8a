"""Scattered trees as finite terms: end-space ranks, the structure every
self-embedding preserves, and equimorphy twins, with exhaustive oracles on
small finite trees.

Every name below is re-exported lazily (PEP 562): importing the package
loads no submodule, and the first access to a name loads only the module
that defines it, so each command pays only for what it uses.  The
modules by layer:

* `ordinals`: ordinals below ω^ω;
* `terms`: the term syntax and structure (parse, format, components,
  stages, measure fields, addresses);
* `embedding`: root-to-root embedding and the shift relation;
* `cuts`: truncation cuts, their codes and the expansion of finite terms,
  the one engine module that builds `finite_trees` values;
* `ranks`, `ends`, `stability`, `twins`: the analyses;
* `finite_trees` and `oracle`: finite trees and exhaustive ground truth,
  the independent oracles the tests check the analyses against."""

__version__ = "0.1.0"

# the exported names by defining submodule
_EXPORTS = {
    "ordinals": (
        "NotASuccessorError",
        "Ordinal",
        "OMEGA",
        "ONE",
        "ZERO",
        "format_ordinal",
        "parse_ordinal",
    ),
    "finite_trees": (
        "EndoClassification",
        "FiniteTree",
        "RootedFiniteTree",
        "TreeError",
        "automorphisms",
        "canonical_code",
        "center",
        "classify_automorphism",
        "is_isomorphic",
        "iter_automorphisms",
        "path_tree",
        "rooted_embeds",
        "star_tree",
        "unrooted_code",
    ),
    "terms": (
        "BOX",
        "Box",
        "ComponentSeq",
        "Context",
        "Generated",
        "NO",
        "Patched",
        "Periodic",
        "Succ",
        "Sup",
        "SupSeq",
        "Term",
        "TermError",
        "UNKNOWN",
        "WSum",
        "YES",
        "address_distance",
        "builtins",
        "format_term",
        "height",
        "is_rayless",
        "join_address",
        "level",
        "parse_term",
        "resolve",
        "resolve_name",
        "shift_seq",
        "spine_address",
        "stage",
        "vertex_count",
    ),
    "embedding": ("embeds", "equimorphic"),
    "cuts": ("Truncation", "expand_finite", "truncate", "truncation_dot", "truncation_json"),
    "ranks": (
        "MANY",
        "RankSummary",
        "RankUndecided",
        "build_rank_witness",
        "lim_member",
        "rank_summary",
    ),
    "ends": (
        "OriginUndefined",
        "ShiftReport",
        "origin_vertex",
        "regular_components",
        "shift_report",
    ),
    "stability": ("StabilityCertificate", "classify", "twin_cardinality"),
    "twins": (
        "LabelledPath",
        "Poset",
        "almost_disjoint_family",
        "analyze_lpath",
        "displacements",
        "enumerate_lpath_twins",
        "format_lpath",
        "least_shift_period",
        "lpath_embeds",
        "lpath_equimorphic",
        "lpath_twin_count",
        "parse_lpath",
        "same_labelling",
        "shift_feasible",
        "twin_from_subset",
        "twin_n",
        "verify_twins",
    ),
    "oracle": (
        "FREE_COUNTS",
        "ROOTED_COUNTS",
        "OracleError",
        "cayley_identity",
        "center_fixed_check",
        "embed_cross_check",
        "endo_classification_sweep",
        "equimorphy_is_isomorphy",
        "free_trees",
        "naive_automorphisms",
        "naive_rooted_embeds",
        "prufer_cross_check",
        "prufer_tree",
        "rooted_trees",
        "run_oracle",
        "unrooted_embeds",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
