"""Rendering lint results: human-readable text, ``--json``, ``--sarif``.

The JSON schema (version 4) is stable for CI consumption::

    {
      "version": 4,
      "rule_set": ["CONC001", "DET001", ..., "SEED001"],
      "clean": bool,
      "files_scanned": int,
      "summary": {"findings": int, "suppressed": int,
                  "by_rule": {"DET001": int, ...}},
      "findings": [{"rule", "severity", "path", "line", "col",
                    "message", "hint", "fingerprint"}, ...],
      "rules": {"DET001": {"title", "severity", "rationale", "hint"}, ...},
      "timing": {"per_file_seconds": float,
                 "program_build_seconds": float,
                 "program_rules": {"SEED001": float, ...},
                 "total_seconds": float}
    }

Version 2 added ``rule_set`` (the ids that actually ran) so a consumer
comparing two reports can tell a clean run from a run that never
executed the rule it cares about.  Version 3 added ``timing`` —
analyzer wall-time telemetry.  It is the one non-deterministic key in
the payload; byte-for-byte comparisons of two reports must strip it
first.  Version 4 dropped ``summary.baselined`` with the baseline
feature.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from repro.lint.engine import LintResult
from repro.lint.rules import Rule, all_rules

JSON_SCHEMA_VERSION = 4


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    out: list[str] = []
    for finding in result.findings:
        out.append(
            f"{finding.location()}: {finding.rule} {finding.severity}: "
            f"{finding.message}"
        )
        out.append(f"    hint: {finding.hint}")
    if verbose:
        for finding in result.suppressed:
            out.append(
                f"{finding.location()}: {finding.rule} suppressed: "
                f"{finding.message} (reason: {finding.suppress_reason})"
            )
    counts = Counter(f.rule for f in result.findings)
    by_rule = (
        " (" + ", ".join(f"{r}: {n}" for r, n in sorted(counts.items())) + ")"
        if counts
        else ""
    )
    out.append(
        f"{result.files_scanned} files scanned: "
        f"{len(result.findings)} finding(s){by_rule}, "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(out)


def render_json(result: LintResult, rules: Sequence[Rule] | None = None) -> str:
    """Machine-readable report (schema above, sorted keys, stable bytes)."""
    rules = list(all_rules() if rules is None else rules)
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "rule_set": sorted(rule.id for rule in rules),
        "clean": result.clean,
        "files_scanned": result.files_scanned,
        "summary": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
            "by_rule": dict(
                sorted(Counter(f.rule for f in result.findings).items())
            ),
        },
        "findings": [f.to_json() for f in result.findings],
        "timing": result.timing,
        "rules": {
            rule.id: {
                "title": rule.title,
                "severity": rule.severity,
                "rationale": rule.rationale,
                "hint": rule.hint,
            }
            for rule in rules
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True)


#: SARIF severity levels for the linter's severities.
_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def render_sarif(result: LintResult, rules: Sequence[Rule] | None = None) -> str:
    """SARIF 2.1.0 report for code-scanning upload (``--sarif``).

    One run, one driver (``repro-lint``), one result per finding.  The
    finding fingerprint rides along as a partial fingerprint so SARIF
    consumers can track a hazard across line shifts.  Parse-error findings (``DET000``) carry no
    registered rule; their results simply omit ``ruleIndex``.
    """
    rules = list(all_rules() if rules is None else rules)
    rule_index = {rule.id: i for i, rule in enumerate(rules)}
    results = []
    for finding in result.findings:
        entry = {
            "ruleId": finding.rule,
            "level": _SARIF_LEVELS.get(finding.severity, "warning"),
            "message": {"text": f"{finding.message} (hint: {finding.hint})"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "reproLintFingerprint/v1": finding.fingerprint()
            },
        }
        if finding.rule in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule]
        results.append(entry)
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": [
                            {
                                "id": rule.id,
                                "name": rule.title or rule.id,
                                "shortDescription": {
                                    "text": rule.title or rule.id
                                },
                                "fullDescription": {"text": rule.rationale},
                                "help": {"text": rule.hint},
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS.get(
                                        rule.severity, "warning"
                                    )
                                },
                            }
                            for rule in rules
                        ],
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def render_rule_list(rules: Sequence[Rule] | None = None) -> str:
    """``--list-rules`` output: id, severity, pass tier, title, doc."""
    rules = list(all_rules() if rules is None else rules)
    out = []
    for rule in rules:
        out.append(
            f"{rule.id} [{rule.severity}] ({rule.tier}) {rule.title}"
        )
        out.append(f"    {rule.rationale}")
    return "\n".join(out)
