"""Output checks.  Every failed check is one failed operation: it
counts in ``failed_frac`` and makes the command exit non-zero.

``expected.json`` pins, for seed 19, each workload's input fingerprint
and the digest of every statement variant's rules; all seeds are held
to the checks that need no pin (one digest per variant, thresholds
met, refreshes incremental, refreshed rules equal to a from-scratch
run).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

EXPECTED_PATH = Path(__file__).with_name("expected.json")
PINNED_SEED = 19

#: slack for thresholds the program compares as integer group counts
EPSILON = 1e-9

Rule = Tuple[Tuple[str, ...], Tuple[str, ...], float, float]


def canonical_rules(rules: Iterable[Sequence[Any]]) -> List[Rule]:
    """Sorted ``(body, head, support, confidence)`` tuples from either
    ``result.rule_set()`` or the job API's ``rules`` payload."""
    return sorted(
        (
            tuple(sorted(str(item) for item in body)),
            tuple(sorted(str(item) for item in head)),
            round(float(support), 9),
            round(float(confidence), 9),
        )
        for body, head, support, confidence in rules
    )


def rules_digest(rules: Iterable[Sequence[Any]]) -> str:
    return hashlib.sha256(repr(canonical_rules(rules)).encode()).hexdigest()


def rows_fingerprint(rows: Iterable[Sequence[Any]]) -> Dict[str, Any]:
    """Row count + sha256 over the generated rows, in table order."""
    digest = hashlib.sha256()
    count = 0
    for row in rows:
        digest.update(repr(tuple(row)).encode())
        count += 1
    return {"rows": count, "sha256": digest.hexdigest()}


def threshold_violations(
    rules: Iterable[Sequence[Any]], min_support: float, min_confidence: float
) -> int:
    """Rules below the statement's support or confidence threshold."""
    return sum(
        1
        for _body, _head, support, confidence in rules
        if support < min_support - EPSILON
        or confidence < min_confidence - EPSILON
    )


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


class Checker:
    """Collects attempted/failed counts and the failure messages of
    one workload run."""

    def __init__(self, workload: str, seed: int, size: str,
                 expected: Optional[Dict[str, Any]] = None):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.input: Optional[Dict[str, Any]] = None
        if expected is None and seed == PINNED_SEED:
            expected = load_expected()
        pins = (expected or {}).get(size, {}).get(workload, {})
        self._pinned_input = pins.get("input")
        self._pinned_rules: Dict[str, str] = pins.get("rules", {})

    def operation(self, ok: bool, message: str = "") -> bool:
        """One attempted operation; *message* says what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def check_input(self, fingerprint: Dict[str, Any]) -> None:
        """*fingerprint* is ``rows_fingerprint`` of the generated rows."""
        self.input = fingerprint
        if self._pinned_input is not None:
            self.operation(
                self.input == self._pinned_input,
                f"input fingerprint {self.input} != pinned "
                f"{self._pinned_input}",
            )

    def check_digest(self, variant: str, digest: str) -> None:
        """A digest computed elsewhere (the server child's base table)."""
        self.digests[variant] = digest
        pinned = self._pinned_rules.get(variant)
        if pinned is not None:
            self.operation(
                digest == pinned,
                f"{variant}: digest {digest[:12]} != pinned {pinned[:12]}",
            )

    def check_rules(
        self,
        variant: str,
        rules: Iterable[Sequence[Any]],
        min_support: float,
        min_confidence: float,
    ) -> List[str]:
        """The per-statement checks; returns what failed (empty: ok)."""
        rules = list(rules)
        problems: List[str] = []
        digest = rules_digest(rules)
        first = self.digests.setdefault(variant, digest)
        if digest != first:
            problems.append(f"{variant}: digest changed between iterations")
        pinned = self._pinned_rules.get(variant)
        if pinned is not None and digest != pinned:
            problems.append(f"{variant}: digest {digest[:12]} != pinned "
                            f"{pinned[:12]}")
        below = threshold_violations(rules, min_support, min_confidence)
        if below:
            problems.append(f"{variant}: {below} rules below thresholds")
        if not rules:
            problems.append(f"{variant}: no rules")
        return problems

    def pins(self) -> Dict[str, Any]:
        """What ``expected.json`` would hold for this run."""
        return {"input": self.input, "rules": dict(sorted(self.digests.items()))}

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
