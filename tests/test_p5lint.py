#!/usr/bin/env python3
"""Self-test for tools/p5lint.py against tests/lint_fixtures/.

Every bad_*.cc fixture must be flagged by exactly its intended rule
(at least one finding, and no finding from any other rule); every
good_*.cc twin must come back clean.  The fixture table below is the
contract: add a row whenever a fixture is added.

Run directly (``python3 tests/test_p5lint.py``) or through CTest as
the ``p5lint_fixtures`` test.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
P5LINT = REPO / "tools" / "p5lint.py"
FIXTURES = HERE / "lint_fixtures"

# fixture file -> rule expected to fire (None = must be clean)
CASES = [
    ("bad_hot_alloc.cc", "hot_path_no_alloc"),
    ("good_hot_alloc.cc", None),
    ("bad_probe_impure.cc", "probe_purity"),
    ("good_probe_pure.cc", None),
    ("bad_unordered_iter.cc", "determinism"),
    ("good_ordered_iter.cc", None),
    ("bad_banned_rng.cc", "determinism"),
    ("good_seeded_rng.cc", None),
    ("bad_unbound_field.cc", "config_completeness"),
    ("good_bound_field.cc", None),
    ("bad_serialize_unordered.cc", "determinism"),
    ("good_serialize_ordered.cc", None),
    ("bad_serialize_member_template.cc", "determinism"),
    ("good_serialize_member_template.cc", None),
    ("bad_trace_cursor_unordered.cc", "determinism"),
    ("good_trace_cursor_ordered.cc", None),
    ("bad_cold_on_hot.cc", "hot_path_no_alloc"),
    ("good_cold_off_hot.cc", None),
    ("bad_hot_alloc_via_template.cc", "hot_path_no_alloc"),
    ("good_hot_alloc_via_template.cc", None),
    ("bad_process_exit.cc", "single_exit"),
    ("good_error_thrown.cc", None),
    ("bad_hot_function_try_block.cc", "hot_path_no_alloc"),
    ("good_function_try_block.cc", None),
]

# fixture file -> exact finding count, where one is pinned
EXACT_COUNTS = {
    "bad_hot_function_try_block.cc": 1,
}


def lint(path: pathlib.Path):
    """Run p5lint in fixture mode on one file; return (exit, findings)."""
    with tempfile.NamedTemporaryFile(suffix=".json", mode="r") as out:
        proc = subprocess.run(
            [sys.executable, str(P5LINT), "--files", str(path),
             "--json", out.name, "-q"],
            capture_output=True, text=True)
        findings = json.load(open(out.name))["findings"]
    return proc.returncode, findings, proc.stdout + proc.stderr


def main():
    if not P5LINT.is_file():
        print(f"FAIL: analyzer not found: {P5LINT}")
        return 1

    listed = {name for name, _ in CASES}
    on_disk = {p.name for p in FIXTURES.glob("*.cc")}
    failures = []
    if on_disk - listed:
        failures.append(f"fixtures on disk but not in CASES: "
                        f"{sorted(on_disk - listed)}")
    if listed - on_disk:
        failures.append(f"CASES entries with no fixture file: "
                        f"{sorted(listed - on_disk)}")

    for name, expected_rule in CASES:
        path = FIXTURES / name
        if not path.is_file():
            continue  # already reported above
        code, findings, output = lint(path)
        rules = sorted({f["rule"] for f in findings})
        if expected_rule is None:
            if code != 0 or findings:
                failures.append(
                    f"{name}: expected clean, got exit {code} with "
                    f"rules {rules}\n{output}")
            else:
                print(f"ok   {name}: clean")
        else:
            if code != 1 or not findings:
                failures.append(
                    f"{name}: expected >=1 {expected_rule} finding, got "
                    f"exit {code} with {len(findings)} finding(s)\n{output}")
            elif rules != [expected_rule]:
                failures.append(
                    f"{name}: expected only rule {expected_rule}, got "
                    f"{rules}\n{output}")
            elif len(findings) != EXACT_COUNTS.get(name, len(findings)):
                failures.append(
                    f"{name}: expected exactly {EXACT_COUNTS[name]} "
                    f"finding(s), got {len(findings)}\n{output}")
            else:
                print(f"ok   {name}: {len(findings)} x {expected_rule}")

    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"test_p5lint: {len(failures)} failure(s)")
        return 1
    print(f"test_p5lint: all {len(CASES)} fixtures behaved as intended")
    return 0


if __name__ == "__main__":
    sys.exit(main())
