"""The production tree must satisfy its own invariants.

This is the tier-1 gate behind ``python -m repro.analysis src``: every
HL rule runs over ``src/repro`` and must produce zero findings.  Any new
violation either gets fixed or earns an explicit ``# noqa: HL0xx`` with
justification — and suppressions are budgeted, not free: the count here
is pinned so silent accretion shows up in review.
"""

import ast
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
    "AdaptiveCacheSizer": "DESIGN.md, paper §10 future work",
    "observe_and_adjust": "AdaptiveCacheSizer's one verb",
    "walk_log": "repro.lfs.dump: offline log-inspection tool",
    "segment_map": "repro.lfs.dump: offline log-inspection tool",
    "dump_inode": "repro.lfs.dump: offline log-inspection tool",
    "dump_file_map": "repro.lfs.dump: offline log-inspection tool",
    "dump_checkpoints": "repro.lfs.dump: offline log-inspection tool",
    "lru_order": "the victim-order reference the buffer-cache "
                 "property test compares against",
    "written_blocks": "the occupancy count the store-equivalence "
                      "property test compares against",
    "FreeCPU": "the zero-cost CPU model tests substitute",
    "assert_acknowledged": "crashsim's zero-acknowledged-loss oracle",
    "render_text": "repro.obs.report's human-readable metrics and "
                   "trace dump",
    "install_from_env": "the REPRO_SANITIZE=borrow switch every test "
                        "arms through tests/conftest.py",
}


def test_src_tree_is_clean(src_analysis):
    result, _ = src_analysis
    rendered = "\n".join(f.format() for f in result.findings)
    assert result.errors == [], result.errors
    assert result.findings == [], f"analysis findings:\n{rendered}"


def test_suppression_budget(src_analysis):
    result, _ = src_analysis
    # Two sanctioned suppression sites.  bench/: the Table-5 benchmark
    # measures the bare device on purpose (HL002, and its dd-style 1 MB
    # loop shape trips HL008).  analysis/program/index.py: the
    # program-index build clocks itself with the host perf counter
    # for the CI log — tooling that never runs inside the simulation
    # (HL001, two call sites).
    assert len(result.suppressed) == 9
    assert all("bench" in f.path or "analysis" in f.path
               for f in result.suppressed)
    assert {f.code for f in result.suppressed} == {"HL001", "HL002", "HL008"}
    in_analysis = [f for f in result.suppressed if "analysis" in f.path]
    assert len(in_analysis) == 2
    assert all(f.code == "HL001" and "program/index.py" in f.path
               for f in in_analysis)


def test_no_suppressions_in_core_or_lfs(src_analysis):
    result, _ = src_analysis
    for f in result.suppressed:
        path = Path(f.path)
        assert "core" not in path.parts and "lfs" not in path.parts, \
            f"suppression in protected package: {f.format()}"


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
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and words[node.name] == 1
                    and node.name not in UNREFERENCED_OK):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                            f"{node.name}")
    assert dead == [], "defined but never referenced:\n" + "\n".join(dead)


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
