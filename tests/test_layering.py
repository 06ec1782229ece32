"""The package's imports run one way, and none is deferred into a function.

Each module may import only modules listed before it in ``ORDER``, so the
module graph has no cycle and no import has to wait for call time.
"""
import ast
from pathlib import Path

import pytest

from braidforge import garside

ORDER = [
    "report",
    "freegroup",
    "garside",
    "braid",
    "wiring",
    "liealg",
    "monomial",
    "arrangements",
    "cli",
]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "braidforge"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_order_lists_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_no_import_inside_a_function(module):
    for fn in ast.walk(_tree(module)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines = [node.lineno for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not lines, f"{module}.{fn.name} imports at lines {lines}"


@pytest.mark.parametrize("module", ORDER)
def test_relative_imports_name_earlier_modules(module):
    earlier = set(ORDER[: ORDER.index(module)])
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                assert name.split(".")[0] in earlier, (
                    f"{module} imports {name}, which is not listed before it"
                )


# Public names with no caller in the package, each with the job that keeps it.
# A name that gains a caller must leave this dict.
TEST_FACING = {
    # verification suites
    "wiring.verify_twist_shape": "suite run by the braid-images bench and the wiring tests",
    "arrangements.verify_pbn_table": "suite run by the acceptance and arrangement tests",
    "arrangements.verify_pbn_correspondence": "suite run by the acceptance and monomial tests",
    "arrangements.ft_bracket_relations": "tower holonomy presentation the Lie tests certify",
    # reference oracles
    "freegroup.compose": "oracle: Artin images composed letter by letter",
    "freegroup.identity": "oracle: the start of a letter-by-letter Artin image",
    "freegroup.commutator": "oracle: expected relation words in the acceptance tests",
    "freegroup.abelianize":
        "oracle: exponent sums of peeled conjugators, against conjugate_splits",
    "garside.starting_set": "oracle: left-weightedness of normal-form factors",
    "garside.finishing_set": "oracle: left-weightedness of normal-form factors",
    "liealg.lyndon_words":
        "oracle: the Witt count of Lyndon words; the bench checks its cache is cold",
    "liealg.bracket": "oracle: Lie elements built by hand in the Lie tests",
    "liealg.generator": "oracle: Lie elements built by hand in the Lie tests",
    # test constructors
    "wiring.partition": "builds consecutive partitions in the wiring tests",
    "wiring.singletons": "builds the all-singleton partition in the wiring tests",
}


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _resolver(module: str, tree: ast.Module):
    """A function giving the (module, name) a Name or ``mod.name`` node reads, else None.

    A bare name resolves through the reading module's relative imports, and
    ``mod.name`` counts when ``mod`` is a package module bound by
    ``from . import``.
    """
    origin, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module:
                    origin[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name

    def resolve(node: ast.AST):
        if isinstance(node, ast.Name):
            return origin.get(node.id, (module, node.id))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return (modules[node.value.id], node.attr)
        return None

    return resolve


def _references() -> set[tuple[str, str]]:
    """(module, name) pairs read anywhere in the package outside that name's own definition."""
    refs: set[tuple[str, str]] = set()
    for module in ORDER:
        tree = _tree(module)
        resolve = _resolver(module, tree)
        for stmt in tree.body:
            own = _defined_names(ast.Module(body=[stmt], type_ignores=[]))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in own:
                    continue
                target = resolve(node)
                if target is not None:
                    refs.add(target)
    return refs


@pytest.mark.parametrize("module", ORDER)
def test_public_names_are_defined(module):
    tree = _tree(module)
    missing = set(_public_names(tree)) - _defined_names(tree)
    assert not missing, f"{module}.__all__ lists undefined names {sorted(missing)}"


def test_public_names_are_read_or_test_facing():
    refs = _references()
    public = {(m, name) for m in ORDER for name in _public_names(_tree(m))}
    unread = sorted(
        f"{m}.{name}" for m, name in public - refs if f"{m}.{name}" not in TEST_FACING
    )
    assert not unread, f"public names nothing in the package reads: {unread}"
    stale = sorted(set(TEST_FACING) - {f"{m}.{name}" for m, name in public - refs})
    assert not stale, f"TEST_FACING lists names that are not public or already read: {stale}"


def _scopes_where(match) -> set[str]:
    """The ``module.Class.function`` paths in the package holding a node that
    ``match(node, resolve)`` accepts, with ``resolve`` from :func:`_resolver`."""
    found = set()
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module in ORDER:
        tree = _tree(module)
        resolve = _resolver(module, tree)

        def visit(node: ast.AST, path: str) -> None:
            if match(node, resolve):
                found.add(path)
            for child in ast.iter_child_nodes(node):
                visit(child, f"{path}.{child.name}" if isinstance(child, scopes) else path)

        visit(tree, module)
    return found


def _readers(target: tuple[str, str]) -> set[str]:
    """The ``module.Class.function`` paths in the package that read ``target``."""
    return _scopes_where(lambda node, resolve: resolve(node) == target)


def test_only_braid_words_normalise_letters():
    # BraidWord.form is the one place letters become a Garside normal form:
    # everything else multiplies and inverts forms, so a block built once
    # is normalised once
    assert _readers(("garside", "normal_form")) == {"braid.BraidWord.form"}


def test_only_braid_equal_reads_a_braid_form():
    # every equality goes through braid_equal, so every one cancels the
    # parts both braids share; garside's own ``form`` is _Product's method
    readers = _scopes_where(
        lambda node, _: isinstance(node, ast.Attribute) and node.attr == "form")
    readers = {path for path in readers if path.split(".")[0] != "garside"}
    assert readers == {"braid.BraidWord.form", "braid.braid_equal"}


@pytest.mark.parametrize("name", ["product", "inverse"])
def test_only_braid_multiplies_normal_forms(name):
    # suites build braids and compare them with braid_equal; only the braid
    # module turns parts' forms into a product's form
    readers = _readers(("garside", name))
    assert readers and {path.split(".")[0] for path in readers} == {"braid"}, readers


def test_tower_certificate_does_no_lie_arithmetic():
    # the certificate decides the lower-level action from the blocks the
    # flats cut on each level; its only Lie rows are the flat relations,
    # built by liealg.flat_relations
    for name in ("_accumulate", "_bracket_pair"):
        readers = _readers(("liealg", name))
        inside = {path for path in readers if path.split(".")[:2] == ["liealg", "_certify_tower"]}
        assert not inside, f"{name} is read by {sorted(inside)}"


def test_only_artin_reads_the_byte_tables():
    # Artin images are byte strings only inside braid: the one kernel
    # _byte_images builds them, artin decodes them to Words, and
    # conjugate_splits reads cores and exponent sums off them.  "braid" is
    # the tables' own definition.
    kernel = {"braid.artin", "braid._byte_images", "braid._join"}
    for name in ("_NEG", "_LETTER", "_join"):
        readers = _readers(("braid", name)) - {"braid"}
        assert readers and readers <= kernel, (name, readers)
    assert _readers(("braid", "_byte_images")) == {"braid.artin", "braid.conjugate_splits"}


def _method(module: str, cls: str, name: str) -> ast.FunctionDef | None:
    for node in _tree(module).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    return None


def test_raw_letters_are_checked_where_they_enter():
    # word and braid check raw letters; a value built from checked ones is
    # trusted, so no constructor checks it again
    assert _readers(("freegroup", "_check_letters")) == {"freegroup.word"}
    assert _method("freegroup", "Word", "__post_init__") is None
    init = _method("braid", "BraidWord", "__init__")
    assert init is not None
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(init))


def test_one_reader_each_for_the_strand_permutation():
    # purity asks is_pure; the monodromy carries event blocks to basepoint
    # labels once and keeps both on the generator, so no suite reads the
    # permutation again
    assert _readers(("braid", "permutation")) == {"braid.is_pure", "wiring.braid_monodromy"}


def test_graded_ranks_alone_decides_the_elimination_reach():
    # the reach and the method are chosen once, in graded_ranks; the tower
    # canary and the elimination path take the reach from there
    for name in ("_elimination_reach", "_elimination_ranks"):
        assert _readers(("liealg", name)) == {"liealg.graded_ranks"}, name


def test_one_reader_of_the_input_line_syntax():
    # comments, blank lines and line numbers are decided in content_lines;
    # the three file readers take their lines from it
    assert _scopes_where(lambda node, _: (
        isinstance(node, ast.Attribute) and node.attr == "splitlines"
    )) == {"wiring.content_lines"}
    assert _scopes_where(lambda node, _: (
        isinstance(node, ast.Constant) and node.value == "#"
    )) == {"wiring.content_lines"}
    assert _readers(("wiring", "content_lines")) == {
        "wiring.parse_wiring", "cli._parse_lines_file", "cli._parse_flats_file"}


def test_lie_takes_its_witt_sums_from_liealg():
    # the expected column and the certified ranks share liealg.witt_sums
    readers = _readers(("liealg", "witt_rank"))
    assert not {path for path in readers if path.split(".")[0] == "cli"}, readers
    assert {"cli._cmd_lie", "liealg.graded_ranks"} <= _readers(("liealg", "witt_sums"))


def test_monomial_takes_purity_from_the_linking_numbers():
    # linking_pairs raises for a braid that is not pure, so the free-factor
    # suite does not walk each generator's letters a second time
    readers = _readers(("braid", "is_pure"))
    assert not {path for path in readers if path.split(".")[0] == "monomial"}, readers


def test_one_reader_path_for_the_tower_relations():
    # present typeb prints the relations the action table reads, and both
    # take them from the one stream: no second copy holds them all at once
    assert _readers(("arrangements", "tower_relations")) == {
        "arrangements.write_presentation", "arrangements.verify_pbn_table"}


def _cached_functions(module: str) -> set[str]:
    """The module-level functions of ``module`` under ``cache`` or ``lru_cache``."""
    found = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.add(node.name)
    return found


def test_one_twist_record_per_partition():
    # wiring caches the half twists per (block, n) and one twist record per
    # partition, the one builder of Upsilon_I, Upsilon_I^2 and the block
    # twists' product; the monodromy and the twist-shape check both read it
    assert _cached_functions("wiring") == {"permutation_braid_mu", "_twists"}
    assert _readers(("wiring", "_twists")) == {
        "wiring.braid_monodromy", "wiring.verify_twist_shape"}
    assert "upsilon" not in _defined_names(_tree("wiring"))
    assert _readers(("wiring", "permutation_braid_mu")) == {"wiring._twists"}


def test_the_left_weighting_memo_is_bounded():
    # garside memoises the table per strand count and the left-weighting
    # step per factor pair; the pairs are many, so that memo keeps a bound
    assert _cached_functions("garside") == {"_tables", "_left_weight"}
    maxsize = garside._left_weight.cache_info().maxsize
    assert type(maxsize) is int and maxsize > 0
