"""The analysis framework: source files, findings, rules, and the driver.

One :class:`SourceFile` per analyzed module carries the parsed AST, the
derived dotted module name (used for rule scoping), and the per-line
``# noqa`` suppression table.  A :class:`Rule` is an AST visitor plugin
identified by an ``HL0xx`` code that judges one file at a time; the
:class:`Analyzer` runs every rule over every file in one pass.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "Rule",
    "SourceFile",
    "dotted_name",
    "in_scope",
]

#: ``# noqa`` / ``# noqa: HL001`` / ``# noqa: HL001, HL002``
_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*))?",
    re.IGNORECASE)

_CODE_RE = re.compile(r"^HL\d{3}$")


class AnalysisError(Exception):
    """Misuse of the analysis framework (bad rule, unreadable path)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Last physical line the suppression span covers: the end of a
    #: multi-line simple statement or expression, but only the header of
    #: a compound one, so a ``# noqa`` inside its body is not on it.
    end_line: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class SourceFile:
    """A parsed module plus the metadata rules match against."""

    def __init__(self, path: Path, display_path: str, text: str) -> None:
        self.path = path
        self.display_path = display_path
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.module = dotted_name(path)

    @cached_property
    def noqa(self) -> Dict[int, FrozenSet[str]]:
        """line -> frozenset of suppressed codes; empty set = blanket
        noqa.  Only real COMMENT tokens count — a ``"# noqa"`` inside a
        string literal must not suppress anything, so the scan tokenizes
        the source instead of regexing raw lines.  Built on the first
        finding in the file: a clean file is never tokenized."""
        table: Dict[int, FrozenSet[str]] = {}
        for tok in tokenize.generate_tokens(io.StringIO(self.text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                table[tok.start[0]] = frozenset()
            else:
                table[tok.start[0]] = frozenset(
                    c.strip().upper() for c in codes.split(","))
        return table

    @cached_property
    def calls(self) -> List[ast.Call]:
        """Every call in the module, in ``ast.walk`` order: the one call
        walk the rules share."""
        return [n for n in ast.walk(self.tree) if isinstance(n, ast.Call)]

    def span_end(self, node: ast.AST) -> int:
        """Last line a finding on ``node`` covers.  A compound statement
        (``def``, ``for``, ``except``...) covers its header only: up to
        the last non-blank, non-comment line before its body."""
        line = getattr(node, "lineno", 1)
        body = getattr(node, "body", None)
        if not (isinstance(body, list) and body
                and isinstance(body[0], ast.stmt)):
            return getattr(node, "end_lineno", None) or line
        end = body[0].lineno - 1
        lines = self.text.splitlines()
        while end > line and lines[end - 1].strip()[:1] in ("", "#"):
            end -= 1
        return max(line, end)

    def suppresses(self, finding: Finding) -> bool:
        """True if a ``# noqa`` comment covers ``finding``."""
        last = max(finding.line, finding.end_line or finding.line)
        for lineno in range(finding.line, last + 1):
            codes = self.noqa.get(lineno)
            if codes is None:
                continue
            if not codes or finding.code in codes:
                return True
        return False


def dotted_name(path: Path) -> str:
    """Derive a dotted module name for scoping rules.

    The name is rooted at the last ``repro`` path component, so both
    ``src/repro/lfs/check.py`` and a test fixture laid out as
    ``tests/analysis_fixtures/repro/lfs/bad.py`` scope as
    ``repro.lfs.…``.  Files outside any ``repro`` directory scope as
    their bare stem.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[idx:]
        return ".".join(parts) if parts else "repro"
    return parts[-1] if parts else ""


def in_scope(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class Rule:
    """Base class for one invariant check.

    Subclasses set ``code``/``name``/``rationale`` and implement
    :meth:`check`.  ``scope`` limits the rule to dotted-module prefixes
    (empty = everywhere); ``exempt`` carves out prefixes where the
    pattern is the sanctioned implementation itself.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def __init__(self, scope: Optional[Tuple[str, ...]] = None,
                 exempt: Optional[Tuple[str, ...]] = None) -> None:
        if not _CODE_RE.match(self.code):
            raise AnalysisError(
                f"rule {type(self).__name__} has invalid code {self.code!r}")
        if scope is not None:
            self.scope = tuple(scope)
        if exempt is not None:
            self.exempt = tuple(exempt)

    def applies_to(self, sf: SourceFile) -> bool:
        if self.exempt and in_scope(sf.module, self.exempt):
            return False
        if self.scope:
            return in_scope(sf.module, self.scope)
        return True

    def check(self, sf: SourceFile) -> List[Finding]:
        raise NotImplementedError

    def finding(self, sf: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(path=sf.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       code=self.code, message=message,
                       end_line=sf.span_end(node))


@dataclass
class AnalysisResult:
    """Everything one analysis pass produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def counts_by_code(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return dict(sorted(out.items()))


class Analyzer:
    """Loads sources, runs every rule, filters ``# noqa`` suppressions."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        codes = [r.code for r in rules]
        dupes = {c for c in codes if codes.count(c) > 1}
        if dupes:
            raise AnalysisError(f"duplicate rule codes: {sorted(dupes)}")
        self.rules = list(rules)

    # -- source loading ----------------------------------------------------

    @staticmethod
    def collect_files(paths: Iterable[str]) -> List[Path]:
        """Expand ``paths`` to the ordered, deduplicated file list.

        Overlapping inputs (a directory plus a file inside it, the same
        path twice) must not analyze — and double-report — a file twice,
        so collection dedupes on the resolved path while keeping the
        first-seen order.
        """
        out: List[Path] = []
        seen: set = set()
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                candidates: List[Path] = sorted(p.rglob("*.py"))
            elif p.is_file():
                candidates = [p]
            else:
                raise AnalysisError(f"no such file or directory: {raw}")
            for candidate in candidates:
                key = candidate.resolve()
                if key not in seen:
                    seen.add(key)
                    out.append(candidate)
        return out

    def load(self, paths: Iterable[str],
             errors: Optional[List[str]] = None) -> List[SourceFile]:
        """Parse every collected file, in collection order."""
        files: List[SourceFile] = []
        for path in self.collect_files(paths):
            text = path.read_text(encoding="utf-8")
            try:
                files.append(SourceFile(path, str(path), text))
            except SyntaxError as exc:
                err = (f"{path}: syntax error: {exc.msg} "
                       f"(line {exc.lineno})")
                if errors is None:
                    raise AnalysisError(err) from exc
                errors.append(err)
        return files

    # -- driving -----------------------------------------------------------

    def run(self, paths: Iterable[str]) -> AnalysisResult:
        result = AnalysisResult()
        files = self.load(paths, errors=result.errors)
        result.files_analyzed = len(files)
        for sf in files:
            for rule in self.rules:
                if not rule.applies_to(sf):
                    continue
                for finding in rule.check(sf):
                    if sf.suppresses(finding):
                        result.suppressed.append(finding)
                    else:
                        result.findings.append(finding)
        result.findings.sort()
        result.suppressed.sort()
        return result
