#!/usr/bin/env python
"""Doc-sync linter: the reference tables must match the introspectable API.

The docs under ``docs/`` contain reference tables that exist to be
*complete* and *current*:

* ``docs/solver-options.md`` must document every validated solver option —
  the union of ``repro.optim.backend.BACKEND_OPTIONS`` (the authoritative
  option-per-backend matrix the dispatcher validates against).
* ``docs/instrumentation.md`` must document every performance counter in
  ``repro.optim.instrumentation.COUNTER_NAMES``.

Rather than trusting authors to remember the docs, this tool introspects
those structures and fails when a name is missing.  A name counts as
documented when it appears backtick-quoted (`` `name` ``) anywhere in the
corresponding file, which is how the tables render their first column.

It also fails on *stale* rows: a table whose header starts with ``Option``,
``Counter`` or ``Variable`` may only list, in its first column, an option
in ``BACKEND_OPTIONS``, a counter in ``COUNTER_NAMES``, or an environment
variable that some file under ``src/`` or ``benchmarks/`` reads (names it
as a string literal).

Usage::

    python tools/check_docs.py [--docs-dir docs]

Exits non-zero listing every missing or stale name.  CI runs it in the
``static-analysis`` job; ``tests/test_lint_docs.py`` keeps it honest under
plain pytest by doctoring a copy of the docs and asserting the failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Header of a reference table's first column -> what its rows name.
_TABLE_KINDS = {"Option": "option", "Counter": "counter", "Variable": "env variable"}


def _api_names() -> List[Tuple[str, Set[str]]]:
    """(doc file name, required names) pairs, introspected from the code."""
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    try:
        from repro.optim.backend import BACKEND_OPTIONS
        from repro.optim.instrumentation import COUNTER_NAMES
    finally:
        sys.path.pop(0)
    options: Set[str] = set()
    for honored in BACKEND_OPTIONS.values():
        options |= honored
    return [
        ("solver-options.md", options),
        ("instrumentation.md", set(COUNTER_NAMES)),
    ]


def _env_variables_read() -> Set[str]:
    """Upper-case string literals in the Python sources of src/ and benchmarks/."""
    names: Set[str] = set()
    for top in ("src", "benchmarks"):
        for path in sorted((_REPO_ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            names.update(re.findall(r"[\"']([A-Z][A-Z0-9_]*)[\"']", text))
    return names


def _documented_names(text: str) -> Set[str]:
    """Every backtick-quoted identifier in ``text``."""
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", text))


def _first_column_names(text: str) -> List[Tuple[str, str]]:
    """(table kind, name) for each backtick-quoted first cell of a reference table."""
    rows: List[Tuple[str, str]] = []
    kind = None
    for line in text.splitlines():
        if not line.startswith("|"):
            kind = None
            continue
        first = line.split("|")[1].strip()
        if kind is None:  # header row
            kind = _TABLE_KINDS.get(first, "")
            continue
        match = re.fullmatch(r"`([A-Za-z_][A-Za-z0-9_]*)`", first)
        if kind and match:
            rows.append((kind, match.group(1)))
    return rows


def check_docs(docs_dir: Path) -> List[str]:
    """Return a list of human-readable findings (empty means in sync)."""
    findings: List[str] = []
    api = _api_names()
    known: Dict[str, Set[str]] = {
        "option": dict(api)["solver-options.md"],
        "counter": dict(api)["instrumentation.md"],
        "env variable": _env_variables_read(),
    }
    for file_name, required in api:
        path = docs_dir / file_name
        if not path.is_file():
            findings.append(f"{path}: missing (must document {len(required)} names)")
            continue
        text = path.read_text(encoding="utf-8")
        documented = _documented_names(text)
        for name in sorted(required - documented):
            findings.append(f"{path}: `{name}` is not documented")
        for kind, name in _first_column_names(text):
            if name not in known[kind]:
                findings.append(f"{path}: `{name}` is documented but is no {kind} in the code")
    return findings


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--docs-dir",
        type=Path,
        default=_REPO_ROOT / "docs",
        help="directory holding the reference docs (default: the repo's docs/)",
    )
    args = parser.parse_args(argv)
    findings = check_docs(args.docs_dir)
    if findings:
        for finding in findings:
            print(finding)
        print(f"check_docs: {len(findings)} missing or stale name(s)")
        return 1
    total = sum(len(required) for _, required in _api_names())
    print(f"check_docs: {total} option/counter name(s) documented, in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
