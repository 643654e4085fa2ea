"""The production tree must satisfy its own invariants.

This is the tier-1 gate behind ``python -m repro.analysis src``: every
HL rule runs over ``src/repro`` and must produce zero findings.  Any new
violation either gets fixed or earns an explicit ``# noqa: HL0xx`` with
justification — and suppressions are budgeted, not free: the count here
is pinned so silent accretion shows up in review.
"""

import ast
import functools
import importlib.util
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"

#: Public names whose only use outside the tests is their definition,
#: each with the reason it stays.  The default answer to a hit is
#: deletion, with the tests that were its only callers.
UNREFERENCED_OK = {
    "rename": "UFS namespace operation (DESIGN.md filesystem API)",
    "truncate": "UFS namespace operation (DESIGN.md filesystem API)",
    "rmdir": "UFS namespace operation (DESIGN.md filesystem API)",
    "add_volume": "on-line tertiary growth, paper §6.3 (DESIGN.md)",
    "grow_disk": "on-line disk growth, paper §6.3 (DESIGN.md)",
    "grow": "the ifile grows with the address space, paper §6.4",
    "make_metrum": "DESIGN.md device table: the Metrum tape jukebox",
    "make_sony_worm": "DESIGN.md device table: the Sony WORM jukebox",
    "lru_order": "the victim-order reference the buffer-cache "
                 "property test compares against",
    "assert_acknowledged": "crashsim's zero-acknowledged-loss oracle",
    "GreedyPolicy": "the golden trace's cleaner",
}


def test_src_tree_is_clean(src_analysis):
    result, _ = src_analysis
    rendered = "\n".join(f.format() for f in result.findings)
    assert result.errors == [], result.errors
    assert result.findings == [], f"analysis findings:\n{rendered}"


def test_suppression_budget(src_analysis):
    result, _ = src_analysis
    # One sanctioned suppression site, bench/tables.py: the Table-5
    # benchmark measures the bare device on purpose (HL002), and its
    # dd-style 1 MB loop shape trips HL008.
    assert len(result.suppressed) == 7
    assert all(f.path.endswith("bench/tables.py")
               for f in result.suppressed)
    assert {f.code for f in result.suppressed} == {"HL002", "HL008"}


def test_no_suppressions_in_core_or_lfs(src_analysis):
    result, _ = src_analysis
    for f in result.suppressed:
        path = Path(f.path)
        assert "core" not in path.parts and "lfs" not in path.parts, \
            f"suppression in protected package: {f.format()}"


@functools.lru_cache(maxsize=None)
def _src_trees():
    """``(path, tree)`` of every module in ``src``, parsed once for the
    guards below."""
    return tuple((path, ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(SRC.rglob("*.py")))


#: The one layer order of ``src`` (the paper's Fig. 5, bottom first):
#: a module may import from its own package and the packages before it,
#: never from one after it.  ``errors`` is the module ``repro.errors``.
LAYERS = ("errors", "util", "obs", "sim", "faults", "blockdev",
          "footprint", "lfs", "ffs", "sched", "core", "persist", "cluster",
          "frontend", "workloads", "bench", "analysis")


def _upward_imports(layer: str, tree):
    """``(line, module)`` for each ``repro`` import in ``tree``, at any
    depth, that names a package above ``layer`` (or the ``repro``
    facade itself)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "repro":
            modules = [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] != "repro":
                continue
            target = parts[1] if len(parts) > 1 else ""
            rank = LAYERS.index(target) if target in LAYERS else len(LAYERS)
            if rank > LAYERS.index(layer):
                yield node.lineno, module


def test_imports_follow_the_layer_order():
    """Every ``repro`` import in ``src``, function-level ones included,
    points down :data:`LAYERS`, so no two packages form a cycle; every
    package has a place in the table.  The ``repro`` facade sits above
    them all."""
    packages, upward = set(), []
    for path, tree in _src_trees():
        rel = path.relative_to(SRC)
        if rel.parts == ("__init__.py",):
            continue
        layer = rel.parts[0].removesuffix(".py")
        packages.add(layer)
        upward += [f"{rel.as_posix()}:{line} -> {module}"
                   for line, module in _upward_imports(layer, tree)]
    assert packages == set(LAYERS)
    assert upward == [], "imports against the layer order:\n" + \
        "\n".join(upward)


def test_the_layer_check_flags_every_import_form():
    source = ("import repro.core.stack\n"
              "from repro.persist.format import decode_slot\n"
              "from repro import bench, obs\n"
              "from repro.lfs.check import check_filesystem\n"
              "def f():\n"
              "    from repro.frontend import session\n")
    found = list(_upward_imports("lfs", ast.parse(source)))
    assert found == [(1, "repro.core.stack"), (2, "repro.persist.format"),
                     (3, "repro.bench"), (6, "repro.frontend")]


def _code_identifiers(path: Path):
    """Every identifier token of a Python file: names in strings,
    comments and docstrings are not references."""
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                yield tok.string


def test_every_public_name_is_referenced_somewhere():
    """ROADMAP 9(a), the test-only form: a public def/class in ``src``
    whose name occurs exactly once as an identifier — its own
    definition — across the code of ``src``, the benchmarks and the
    examples is dead, however many tests call it.  A mention in a
    lazy-export table, a docstring, a ``getattr`` string, the docs or a
    test is not a use."""
    words = Counter(w for d in ("src", "benchmarks", "bench_e2e",
                                "examples")
                    for p in sorted((ROOT / d).rglob("*.py"))
                    for w in _code_identifiers(p))
    dead = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and words[node.name] == 1
                    and node.name not in UNREFERENCED_OK):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                            f"{node.name}")
    assert dead == [], "defined but never referenced:\n" + "\n".join(dead)


#: Public instance attributes (``Class.attr``) that nothing reads, each
#: with the reason it stays.  The default answer to a hit is deletion
#: (keeping any obs counter the attribute mirrored).
WRITE_ONLY_OK = {
    "MetricFamily.help": "the one-line description every "
                         "obs.counter/gauge/histogram call site passes "
                         "documents the series where it is recorded",
}


def _self_attribute_writes(tree):
    """``("Class.attr", target)`` for each public ``self.attr = ...`` in
    a method of a class in ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in getattr(target, "elts", [target]):
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                and not t.attr.startswith("_")):
                            yield f"{cls.name}.{t.attr}", t


def test_every_public_attribute_is_read_somewhere():
    """A public ``self.<name> = ...`` in ``src`` whose name is never
    read as an attribute (nor named in a ``getattr``/``hasattr``)
    anywhere in ``src``, the benchmarks, the examples or the tests is
    write-only state.  ``self.n += 1`` is a write, not a read; names are
    matched, not objects, so this only catches names no one reads."""
    reads = set()
    for d in ("src", "benchmarks", "bench_e2e", "examples", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    reads.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in ("getattr", "hasattr")
                      and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
    unread = [f"{path.relative_to(ROOT)}:{t.lineno} {site}"
              for path, tree in _src_trees()
              for site, t in _self_attribute_writes(tree)
              if t.attr not in reads and site not in WRITE_ONLY_OK]
    assert unread == [], "assigned but never read:\n" + "\n".join(unread)


#: ``path:line`` sites allowed to hand a callable to another object's
#: attribute.  Add one with the reason it must stay; the default answer
#: is a constructor that fills an ``fs`` slot the owner calls.
CALLABLE_ASSIGN_OK: set = set()


def _is_method(node) -> bool:
    return not any(isinstance(d, ast.Name) and d.id == "property"
                   for d in node.decorator_list)


def test_no_callable_is_assigned_to_another_objects_attribute():
    """Components attach by construction, never by swapping a method or
    planting a hook: no ``x.attr = <callable>`` in ``src`` where ``x`` is
    not bare ``self`` and the value is a lambda, a nested ``def``, or a
    ``self.``-rooted chain ending in a method name (a bound method)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {n.name for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, defs) and _is_method(n)}

    def bound_method(value) -> bool:
        if not isinstance(value, ast.Attribute) or value.attr not in methods:
            return False
        while isinstance(value, ast.Attribute):
            value = value.value
        return isinstance(value, ast.Name) and value.id == "self"

    hits = set()
    for path, tree in trees.items():
        scopes = [(tree, set())] + [
            (fn, {n.name for n in ast.walk(fn)
                  if isinstance(n, defs) and n is not fn})
            for fn in ast.walk(tree) if isinstance(fn, defs)]
        for scope, nested in scopes:
            for node in ast.walk(scope):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (isinstance(value, ast.Lambda) or bound_method(value)
                        or (isinstance(value, ast.Name)
                            and value.id in nested)):
                    continue
                if any(isinstance(t, ast.Attribute)
                       and not (isinstance(t.value, ast.Name)
                                and t.value.id == "self")
                       for t in node.targets):
                    site = f"{path.relative_to(ROOT)}:{node.lineno}"
                    if site not in CALLABLE_ASSIGN_OK:
                        hits.add(f"{site}: {ast.unparse(node)}")
    assert not hits, ("callable assigned to another object's attribute:\n"
                      + "\n".join(sorted(hits)))


#: The class that defines the bytes verbs once, as adapters.
VERB_ADAPTERS = "BlockIO"

#: Each bytes verb (and ``write_refs``) -> the verb it adapts.
ADAPTED_VERB = {"read": "read_refs", "write": "writev",
                "write_refs": "writev"}


def test_no_layer_implements_a_bytes_verb_beside_its_twin():
    """One read and one write per block layer: no class in ``src``
    other than the shared adapter class defines a body for both a
    bytes verb and the borrowed verb it derives from."""
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) \
                    or node.name == VERB_ADAPTERS:
                continue
            defined = {n.name for n in node.body
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
            for verb, twin in ADAPTED_VERB.items():
                if verb in defined and twin in defined:
                    hits.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                                f"{node.name}.{verb} beside .{twin}")
    assert hits == [], "second implementation of a verb:\n" + "\n".join(hits)


#: The one module that assembles a HighLight stack.
STACK_BUILDER = SRC / "core" / "stack.py"

#: ``path:line`` sites outside the builder allowed to make or mount a
#: HighLight filesystem.  Add one with the reason it must stay; the
#: default answer is a call to ``make_highlight`` or ``remount``.
STACK_ASSEMBLY_OK: set = set()


def test_one_module_builds_a_highlight_stack():
    """Every single-node bed comes from ``repro.core.stack``: no
    ``mkfs_highlight``/``mount_highlight`` call in ``src``,
    ``benchmarks`` or ``examples`` outside the builder module."""
    hits = []
    for d in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path == STACK_BUILDER:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                site = f"{path.relative_to(ROOT)}:{node.lineno}"
                if (name in ("mkfs_highlight", "mount_highlight")
                        and site not in STACK_ASSEMBLY_OK):
                    hits.append(f"{site}: {ast.unparse(node)}")
    assert hits == [], ("HighLight stack assembled outside "
                        "repro.core.stack:\n" + "\n".join(hits))


#: The one scope that may set a filesystem's Footprint: the stack's own
#: construction.
FOOTPRINT_SETTERS = {("core/highlight.py", "__init__"),
                     ("core/highlight.py", "attach_tertiary")}


def _names_a_footprint(node, derived) -> bool:
    if isinstance(node, ast.Name):
        return "footprint" in node.id or node.id in derived
    if isinstance(node, ast.Attribute):
        return ("footprint" in node.attr
                or (node.attr == "inner"
                    and _names_a_footprint(node.value, derived)))
    return False


def test_the_footprint_is_never_replaced_or_unwrapped():
    """``fs.footprint`` is the one door to tertiary storage (paper §6.7):
    outside ``HighLightFS`` construction nothing in ``src`` assigns a
    ``footprint`` attribute, and nothing reads ``.inner`` off a Footprint
    (or a name bound to one) to get at a wrapped one."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function name
        for fn in ast.walk(tree):  # outer functions first, inner overwrite
            if isinstance(fn, defs):
                owner.update((n, fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign))
                    or (rel, owner.get(node)) in FOOTPRINT_SETTERS):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Attribute) and t.attr == "footprint"
                   for t in targets):
                hits.append(f"{rel}:{node.lineno}: {ast.unparse(node)}")
        for scope in [tree] + [fn for fn in ast.walk(tree)
                               if isinstance(fn, defs)]:
            derived: set = set()
            for _ in range(3):  # `base = fs.footprint; base = base.inner`
                for node in ast.walk(scope):
                    if (isinstance(node, ast.Assign)
                            and _names_a_footprint(node.value, derived)):
                        derived |= {t.id for t in node.targets
                                    if isinstance(t, ast.Name)}
            hits += [f"{rel}:{node.lineno}: {ast.unparse(node)}"
                     for node in ast.walk(scope)
                     if isinstance(node, ast.Attribute)
                     and node.attr == "inner"
                     and _names_a_footprint(node.value, derived)]
    assert hits == [], ("a Footprint replaced or unwrapped:\n"
                        + "\n".join(sorted(set(hits))))


def test_checkpoint_mark_and_commit_run_as_one_expression():
    """The persistence checkpoint's capture and durable write are
    private, and their caller runs them as one expression: no statement
    can mutate state between mark and commit (what rule HL010 used to
    check)."""
    tree = ast.parse((SRC / "persist" / "manager.py").read_text(
        encoding="utf-8"))
    manager = next(n for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)
                   and n.name == "PersistManager")
    methods = {n.name: n for n in manager.body
               if isinstance(n, ast.FunctionDef)}
    assert not {"checkpoint_mark", "checkpoint_commit"} & set(methods)
    body = [stmt for stmt in methods["on_checkpoint"].body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    assert [ast.unparse(stmt) for stmt in body] == \
        ["self._commit(actor, self._mark(actor))"]


def test_every_unreached_entry_names_a_function_in_src():
    """Each ``UNREACHED_OK`` key in ``benchmarks/reach.py`` names a
    function, class or module that still has a function in ``src``.  The
    reach run itself is a CI step; this runs no driver."""
    path = ROOT / "benchmarks" / "reach.py"
    listed = next(ast.literal_eval(node.value)
                  for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.Assign)
                  and node.targets[0].id == "UNREACHED_OK")
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    quals = set(reach.functions().values())
    stale = [key for key in listed
             if not any(reach.covers(key, qual) for qual in quals)]
    assert stale == [], f"UNREACHED_OK keys naming nothing in src: {stale}"
    assert all(isinstance(why, str) and why for why in listed.values())
