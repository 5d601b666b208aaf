from benchmarks.suite.checks import (
    Checker,
    rows_fingerprint,
    rules_digest,
    threshold_violations,
)

RULE_SET = {
    (frozenset({"b", "a"}), frozenset({"c"}), 0.25, 0.5),
    (frozenset({"a"}), frozenset({"c"}), 0.3, 0.6),
}
#: the same rules as the job API serializes them
PAYLOAD = [[["a"], ["c"], 0.3, 0.6], [["a", "b"], ["c"], 0.25, 0.5]]


def test_digest_is_the_same_for_rule_sets_and_job_payloads():
    assert rules_digest(RULE_SET) == rules_digest(PAYLOAD)
    changed = [[["a"], ["c"], 0.3, 0.61], PAYLOAD[1]]
    assert rules_digest(changed) != rules_digest(PAYLOAD)


def test_fingerprint_counts_rows_and_depends_on_order():
    rows = [(1, "x"), (2, "y")]
    assert rows_fingerprint(rows)["rows"] == 2
    assert rows_fingerprint(rows) == rows_fingerprint([[1, "x"], [2, "y"]])
    assert rows_fingerprint(rows) != rows_fingerprint(rows[::-1])


def test_rules_below_a_threshold_are_counted():
    assert threshold_violations(PAYLOAD, 0.25, 0.5) == 0
    assert threshold_violations(PAYLOAD, 0.26, 0.5) == 1
    assert threshold_violations(PAYLOAD, 0.25, 0.7) == 2


def test_checker_counts_failed_checks_as_failed_operations():
    pins = {"quick": {"w": {
        "input": {"rows": 2, "sha256": "0" * 64},
        "rules": {"cold": rules_digest(PAYLOAD)},
    }}}
    checker = Checker("w", 19, "quick", expected=pins)
    checker.check_input(rows_fingerprint([(1,), (2,)]))   # wrong sha
    assert (checker.attempted, checker.failed) == (1, 1)
    assert checker.check_rules("cold", RULE_SET, 0.25, 0.5) == []
    drifted = checker.check_rules("cold", PAYLOAD[:1], 0.25, 0.5)
    assert any("changed between iterations" in p for p in drifted)
    assert any("pinned" in p for p in drifted)
    assert checker.check_rules("other", [], 0.1, 0.1) == ["other: no rules"]
    checker.operation(True)
    assert checker.failed_frac == 0.5
