#!/usr/bin/env python3
"""Golden-fixture and catalog-sync suite for muzha-lint.

Fixtures: each file under tests/lint_fixtures/ (recursively — subdirectories
mirror repo paths so the path-scoped worker-thread rules and their allowlists
can be exercised, e.g. tests/lint_fixtures/src/mac/x.cc classifies as model
code) marks every expected finding with an `expect: <rule-id>` comment on the
exact line the linter must report (class-level findings carry the marker on
the class-head line). This driver runs muzha_lint.lint_paths() over the
fixture directory and diffs the actual (file, line, rule) triples against the
markers — both missed findings and unexpected extras fail, so rule
regressions AND false-positive regressions are caught. Coverage is total:
EVERY rule id in the checker's RULES table, meta rules included, must be
pinned by at least one fixture finding, so adding a rule without a fixture
fails immediately.

Catalog sync: the rule catalog exists in three places — the RULES table (the
one source of truth), the muzha_lint.py module docstring, and the DESIGN.md
"Correctness tooling" table. This suite verifies both prose catalogs against
the table, so a rule can no longer be added, renamed or removed in one place
only (the historical "10 rules" vs "13 listed" drift).

Run directly (repo root is inferred) or via `ctest -R muzha_lint_fixtures`.
"""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import muzha_lint  # noqa: E402

FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
MARKER_RE = re.compile(r"expect:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")
DESIGN_RULE_ROW_RE = re.compile(r"^\|\s*`([\w-]+)`\s*\|")
DESIGN_TABLE_HEAD = "| Rule | Bans |"


def expected_findings(root: str) -> set[tuple[str, int, str]]:
    expected: set[tuple[str, int, str]] = set()
    fixture_abs = os.path.join(root, FIXTURE_DIR)
    for dirpath, dirnames, filenames in os.walk(fixture_abs):
        dirnames.sort()
        for fn in sorted(filenames):
            if not fn.endswith(muzha_lint.CXX_EXTENSIONS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, fn), root)
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    m = MARKER_RE.search(line)
                    if not m:
                        continue
                    for rule in re.split(r"\s*,\s*", m.group(1)):
                        if rule not in muzha_lint.RULES:
                            raise SystemExit(
                                f"{rel}:{lineno}: marker names unknown rule '{rule}'")
                        expected.add((rel, lineno, rule))
    return expected


def check_fixtures(root: str) -> bool:
    expected = expected_findings(root)
    actual = {(f.path, f.line, f.rule)
              for f in muzha_lint.lint_paths(root, [FIXTURE_DIR])}

    ok = True
    for path, line, rule in sorted(expected - actual):
        print(f"MISSED   {path}:{line}: [{rule}] marked but not reported")
        ok = False
    for path, line, rule in sorted(actual - expected):
        print(f"SPURIOUS {path}:{line}: [{rule}] reported but not marked")
        ok = False

    rules_pinned = {rule for _, _, rule in expected}
    unpinned = sorted(set(muzha_lint.RULES) - rules_pinned)
    if unpinned:
        print(f"COVERAGE rule ids with no fixture finding: {unpinned} — "
              "every rule needs at least one positive fixture")
        ok = False

    if ok:
        print(f"muzha-lint fixtures OK: {len(expected)} findings across "
              f"{len(rules_pinned)} rules match exactly")
    return ok


def check_catalog_sync(root: str) -> bool:
    """The docstring and DESIGN.md catalogs must match the RULES table."""
    ok = True
    suppressible = set(muzha_lint.RULES) - muzha_lint.META_RULES

    doc = muzha_lint.__doc__ or ""
    for rule in sorted(muzha_lint.RULES):
        if rule not in doc:
            print(f"CATALOG muzha_lint.py docstring does not mention "
                  f"rule '{rule}'")
            ok = False

    design_path = os.path.join(root, "DESIGN.md")
    with open(design_path, encoding="utf-8") as f:
        design = f.read()
    # Every row of the muzha-lint table counts, so a row left behind by a
    # removed rule is drift too.
    lines = design.splitlines()
    design_rules: set[str] = set()
    if DESIGN_TABLE_HEAD in lines:
        for line in lines[lines.index(DESIGN_TABLE_HEAD) + 2:]:
            m = DESIGN_RULE_ROW_RE.match(line)
            if m is None:
                break
            design_rules.add(m.group(1))
    for rule in sorted(suppressible - design_rules):
        print(f"CATALOG DESIGN.md rule table is missing `{rule}`")
        ok = False
    for rule in sorted(design_rules - suppressible):
        print(f"CATALOG DESIGN.md rule table lists `{rule}`, "
              "which is not a suppressible rule")
        ok = False
    for rule in sorted(muzha_lint.META_RULES):
        if f"`{rule}`" not in design:
            print(f"CATALOG DESIGN.md does not mention meta rule `{rule}`")
            ok = False

    if ok:
        n, m = len(suppressible), len(muzha_lint.META_RULES)
        print(f"muzha-lint catalog OK: {n} rules + {m} meta rules "
              "consistent across RULES table, docstring and DESIGN.md")
    return ok


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ok = check_fixtures(root)
    ok = check_catalog_sync(root) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
