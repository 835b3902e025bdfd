"""The committed waiver file for justified project findings.

Whole-program rules over-approximate, and a few real patterns are
intentional (a throwaway constant-seeded generator in a screening
worker that never draws, for example).  Rather than sprinkling noqa
comments across call chains -- a project finding has no single line
that "owns" it -- justified findings live in one committed JSON file,
reviewed like code:

.. code-block:: json

    {
      "version": 1,
      "entries": [
        {
          "rule": "SEED103",
          "path": "src/repro/experiments/harness.py",
          "symbol": "repro.experiments.harness.screening_verdicts",
          "justification": "why this one is fine"
        }
      ]
    }

Matching is by ``(rule, path suffix, symbol)`` -- never by line -- so
entries survive unrelated edits.  Every entry must carry a non-empty
justification, and entries that stop matching anything are reported as
*stale* so the file cannot rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

from repro.lint.project.findings import ProjectFinding

#: The on-disk location the CLI uses unless told otherwise.
DEFAULT_BASELINE_PATH = "lint-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One waived finding: rule + path suffix + symbol + why."""

    rule: str
    path: str
    symbol: str
    justification: str

    def matches(self, finding: ProjectFinding) -> bool:
        return (
            finding.rule == self.rule
            and finding.symbol == self.symbol
            and _path_matches(finding.path, self.path)
        )


def _path_matches(actual: str, suffix: str) -> bool:
    actual_parts = Path(actual).parts
    suffix_parts = Path(suffix).parts
    if len(suffix_parts) > len(actual_parts):
        return False
    return actual_parts[len(actual_parts) - len(suffix_parts):] == suffix_parts


class Baseline:
    """A set of waiver entries with strict-format loading."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()) -> None:
        self.entries: List[BaselineEntry] = list(entries)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or raw.get("version") != 1:
            raise ValueError(
                f"{path}: baseline must be a JSON object with version 1"
            )
        entries: List[BaselineEntry] = []
        for position, item in enumerate(raw.get("entries", [])):
            if not isinstance(item, dict):
                raise ValueError(f"{path}: entry {position} is not an object")
            missing = {"rule", "path", "symbol", "justification"} - set(item)
            if missing:
                raise ValueError(
                    f"{path}: entry {position} missing "
                    f"{', '.join(sorted(missing))}"
                )
            if not str(item["justification"]).strip():
                raise ValueError(
                    f"{path}: entry {position} ({item['rule']} "
                    f"{item['symbol']}) has an empty justification -- "
                    "every waiver must say why"
                )
            entries.append(
                BaselineEntry(
                    rule=str(item["rule"]),
                    path=str(item["path"]),
                    symbol=str(item["symbol"]),
                    justification=str(item["justification"]),
                )
            )
        return cls(entries)

    def partition(
        self, findings: Iterable[ProjectFinding]
    ) -> Tuple[List[ProjectFinding], List[ProjectFinding], List[BaselineEntry]]:
        """``(new, waived, stale)``: findings not covered by any entry,
        findings covered, and entries that covered nothing."""
        new: List[ProjectFinding] = []
        waived: List[ProjectFinding] = []
        used = [False] * len(self.entries)
        for finding in findings:
            matched = False
            for position, entry in enumerate(self.entries):
                if entry.matches(finding):
                    used[position] = True
                    matched = True
            (waived if matched else new).append(finding)
        stale = [
            entry
            for entry, was_used in zip(self.entries, used)
            if not was_used
        ]
        return new, waived, stale

    def to_json(self) -> dict:
        return {
            "version": 1,
            "entries": [
                {
                    "rule": entry.rule,
                    "path": entry.path,
                    "symbol": entry.symbol,
                    "justification": entry.justification,
                }
                for entry in self.entries
            ],
        }

    @staticmethod
    def skeleton(findings: Iterable[ProjectFinding]) -> dict:
        """A baseline document covering ``findings``, with placeholder
        justifications the loader will refuse until filled in."""
        entries = sorted(
            {(f.rule, f.path, f.symbol) for f in findings}
        )
        return {
            "version": 1,
            "entries": [
                {
                    "rule": rule,
                    "path": path,
                    "symbol": symbol,
                    "justification": "",
                }
                for rule, path, symbol in entries
            ],
        }
