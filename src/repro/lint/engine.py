"""The determinism-lint engine: discovery, parsing, suppressions.

One :class:`LintEngine` scans a set of files or directory trees, runs
every applicable per-file rule over each parsed module, indexes the
parsed modules into one :class:`~repro.lint.callgraph.Program`, runs
every whole-program rule over it, and applies one filtering layer:

* **inline suppressions** — ``# repro: allow-DET00x <reason>`` on the
  flagged line (or on a comment-only line directly above it) waives a
  finding.  The reason is mandatory: a suppression without a
  justification does not suppress, it annotates the finding instead,
  so every waiver in the tree is reviewable.

There is no baseline: every finding that survives suppression fails
the run.

The engine's own directory walk is ``sorted`` — the linter practices
the determinism it preaches.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import LintUsageError
from repro.lint.callgraph import CallGraph, Program
from repro.telemetry import tick_seconds
from repro.lint.rules import Rule, RuleContext, all_rules
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    annotate_parents,
)

#: Inline suppression syntax: ``# repro: allow-DET001 <one-line reason>``.
#: The rule pattern covers per-file ids (DET001) and whole-program ids
#: (SEED001, PURE001, EXC001, CONC001, ASYNC001) alike.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow-(?P<rule>[A-Z]{3,5}\d{3})(?:\s+(?P<reason>\S.*))?"
)

@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow-…`` comment."""

    rule: str
    reason: str  # empty when the justification is missing
    line: int


def parse_suppressions(lines: Sequence[str]) -> dict[int, list[Suppression]]:
    """Map *effective* line number -> suppressions covering that line.

    A suppression on a code line covers that line; one on a
    comment-only line covers the next line, so block-style waivers read
    naturally above the offending statement.
    """
    by_line: dict[int, list[Suppression]] = {}
    for index, raw in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(raw)
        if match is None:
            continue
        target = index + 1 if raw.lstrip().startswith("#") else index
        by_line.setdefault(target, []).append(
            Suppression(
                rule=match.group("rule"),
                reason=(match.group("reason") or "").strip(),
                line=index,
            )
        )
    return by_line


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)  # unsuppressed
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Analyzer wall-time telemetry: phase name -> seconds, plus a
    #: nested ``program_rules`` map of per-rule seconds.  Telemetry
    #: only — never an input to anything measured or compared.
    timing: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings


class LintEngine:
    """Run determinism rules over files and trees."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = list(all_rules() if rules is None else rules)

    # -- discovery -----------------------------------------------------

    @staticmethod
    def discover(paths: Iterable[str | Path]) -> list[Path]:
        """Python files under *paths*, deterministically ordered."""
        files: list[Path] = []
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                files.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if "__pycache__" not in p.parts
                )
            elif path.suffix == ".py" and path.exists():
                files.append(path)
            elif not path.exists():
                raise LintUsageError(f"no such file or directory: {path}")
        # De-duplicate while preserving the sorted-per-root order.
        return list(dict.fromkeys(files))

    # -- single file ---------------------------------------------------

    def _parse(
        self, path: Path
    ) -> tuple[str, ast.Module | None, list[str], list[Finding]]:
        """Read and parse one file: ``(rel, tree, lines, parse_findings)``.

        A file that does not parse cannot be certified; it surfaces as
        a DET000 finding (``tree is None``) rather than aborting the run.
        """
        rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintUsageError(f"cannot read {path}: {exc}") from exc
        lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            return (
                rel,
                None,
                lines,
                [
                    Finding(
                        rule="DET000",
                        severity="error",
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"file does not parse: {exc.msg}",
                        hint="fix the syntax error so the file can be linted",
                        text="",
                    )
                ],
            )
        annotate_parents(tree)
        return rel, tree, lines, []

    def _file_findings(
        self, rel: str, tree: ast.Module, lines: list[str]
    ) -> list[Finding]:
        """Raw findings of every applicable per-file rule on one module."""
        ctx = RuleContext(rel=rel, tree=tree, lines=lines)
        findings: list[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProgramRule) or not rule.applies(rel):
                continue
            findings.extend(rule.check(ctx))
        return findings

    @staticmethod
    def _apply_suppressions(
        findings: Iterable[Finding],
        suppressions: dict[int, list[Suppression]],
    ) -> tuple[list[Finding], list[Finding]]:
        """Split raw findings into ``(active, suppressed)``."""
        active: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            waiver = next(
                (
                    s
                    for s in suppressions.get(finding.line, [])
                    if s.rule == finding.rule
                ),
                None,
            )
            if waiver is not None and waiver.reason:
                suppressed.append(
                    dataclasses.replace(
                        finding,
                        suppressed=True,
                        suppress_reason=waiver.reason,
                    )
                )
            elif waiver is not None:
                active.append(
                    dataclasses.replace(
                        finding,
                        message=finding.message
                        + " [suppression ignored: missing reason]",
                    )
                )
            else:
                active.append(finding)
        return active, suppressed

    def lint_file(self, path: Path) -> tuple[list[Finding], list[Finding]]:
        """Lint one file with the per-file rules.

        Whole-program rules need the project symbol table and only run
        under :meth:`run`; returns ``(active, suppressed)`` findings.
        """
        rel, tree, lines, parse_findings = self._parse(path)
        if tree is None:
            return parse_findings, []
        return self._apply_suppressions(
            self._file_findings(rel, tree, lines), parse_suppressions(lines)
        )

    # -- tree ----------------------------------------------------------

    def run(self, paths: Iterable[str | Path]) -> LintResult:
        """Lint every Python file under *paths*.

        Per-file rules run first; the successfully parsed modules are
        then indexed into one :class:`~repro.lint.callgraph.Program`
        (plus call graph) and every :class:`ProgramRule` runs over it.
        Program findings anchor to ordinary file/line locations, so
        inline suppressions apply to them unchanged.

        The shared context is built once per run; program rules reuse
        its memoized models (:meth:`ProgramContext.shared`), and
        ``result.timing`` records where the analyzer's wall time went.
        """
        t_start = tick_seconds()
        result = LintResult()
        parsed: list[tuple[str, ast.Module, list[str]]] = []
        suppressions_by_rel: dict[str, dict[int, list[Suppression]]] = {}
        for path in self.discover(paths):
            rel, tree, lines, parse_findings = self._parse(path)
            result.files_scanned += 1
            suppressions = parse_suppressions(lines)
            suppressions_by_rel[rel] = suppressions
            if tree is None:
                result.findings.extend(parse_findings)
                continue
            parsed.append((rel, tree, lines))
            active, suppressed = self._apply_suppressions(
                self._file_findings(rel, tree, lines), suppressions
            )
            result.findings.extend(active)
            result.suppressed.extend(suppressed)
        t_files = tick_seconds()
        per_rule_seconds: dict[str, float] = {}
        t_build = t_files
        program_rules = [r for r in self.rules if isinstance(r, ProgramRule)]
        if program_rules and parsed:
            ctx = self.build_program_context(parsed)
            t_build = tick_seconds()
            for rule in program_rules:
                t_rule = tick_seconds()
                for finding in rule.check_program(ctx):
                    active, suppressed = self._apply_suppressions(
                        [finding],
                        suppressions_by_rel.get(finding.path, {}),
                    )
                    result.findings.extend(active)
                    result.suppressed.extend(suppressed)
                per_rule_seconds[rule.id] = round(
                    tick_seconds() - t_rule, 6
                )
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.timing = {
            "per_file_seconds": round(t_files - t_start, 6),
            "program_build_seconds": round(t_build - t_files, 6),
            "program_rules": dict(sorted(per_rule_seconds.items())),
            "total_seconds": round(tick_seconds() - t_start, 6),
        }
        return result

    @staticmethod
    def build_program_context(
        parsed: Iterable[tuple[str, ast.Module, Sequence[str]]],
    ) -> ProgramContext:
        """Index parsed modules into a shared whole-program context."""
        program = Program.build(parsed)
        return ProgramContext(program=program, callgraph=CallGraph(program))

    def graph(self, paths: Iterable[str | Path]) -> str:
        """Deterministic call-graph dump (``repro-cli lint --graph``)."""
        parsed: list[tuple[str, ast.Module, list[str]]] = []
        for path in self.discover(paths):
            _, tree, lines, _ = self._parse(path)
            if tree is not None:
                parsed.append((path.as_posix(), tree, lines))
        ctx = self.build_program_context(parsed)
        return ctx.callgraph.render()  # type: ignore[attr-defined]
