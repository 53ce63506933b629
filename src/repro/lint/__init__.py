"""``repro.lint`` — determinism linter and runtime reproducibility sanitizer.

The reproduction's one load-bearing invariant is that every observation
is a pure function of (machine seed, benchmark, layout index).  This
package *enforces* it:

* statically — :class:`~repro.lint.engine.LintEngine` runs the
  per-file DET rules and the whole-program tiers (all sharing one
  analysis core, :mod:`repro.lint.callgraph`) and flags hazards with
  file:line, severity, and a fix hint; run via ``python -m repro.lint``
  or ``repro-cli lint``;
* at runtime — :class:`~repro.lint.sanitizer.DeterminismSanitizer`
  patches the same hazards to raise while library code executes
  (enable with ``REPRO_SANITIZE=1``).
"""

from repro.lint.engine import LintEngine, LintResult
from repro.lint.rules import Finding, all_rules, get_rules
from repro.lint.sanitizer import DeterminismSanitizer, sanitize_requested

__all__ = [
    "DeterminismSanitizer",
    "Finding",
    "LintEngine",
    "LintResult",
    "all_rules",
    "get_rules",
    "sanitize_requested",
]
