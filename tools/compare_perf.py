#!/usr/bin/env python3
"""Diff a fresh `p5sim perf` speedup report against the committed baseline.

Usage: compare_perf.py BASELINE.json FRESH.json

Checks, per baseline case (matched by name):

  * the case still exists and its fast/slow stats are bit-identical
    (``identicalStats`` and equal sim cycle counts) — a correctness
    failure, never tolerated;
  * for chip-level cases (which carry a ``migrations`` member), the
    migration count equals the baseline exactly — the pinned policy
    must never migrate, so any nonzero drift is a scheduler bug;
  * ``simCyclesFast`` and ``ipcTotal`` are within a 25% relative
    tolerance of the baseline — the simulated outcome should only move
    when the model itself changes, and then the baseline must be
    regenerated deliberately;
  * ``speedup`` has not dropped below 75% of the baseline speedup
    (one-sided: going faster is never a failure);
  * ``speedup`` is never below 1.0 minus the case's margin — since
    the busy-path overhaul the fast-forward engine must not cost wall
    clock on any workload, so a sub-parity case is a regression in its
    own right, whatever the committed baseline says (no re-baking
    regressions into the baseline). A parity case (one whose baseline
    records ``aaStdErr``) takes its margin from the fresh report's own
    A/A arm (see below); every other case has no margin;
  * ``tickedCycles`` and ``ffProbes`` (the fast arm's ticked cycles
    and fast-forward probes) equal the baseline exactly, when the
    baseline records them. Both are pure functions of the code and the
    workload, so they check without a clock what the parity floor
    below checks with one: a change to when the engine probes or skips
    shows up as a count, not as a few percent of wall time. A change
    that moves them on purpose regenerates the baseline;
  * checkpointed cases (marked ``"checkpointed": true``) compare the
    checkpoint/fork path against the fast-forward-only path over a
    priority matrix.  Their fork accounting (``warms``/``memForks``)
    must match the baseline exactly, the two arms' stats must be
    bit-identical, ``simCyclesMatrix`` must be within the relative
    tolerance, and the speedup must clear both the relative floor and
    an absolute 2.0x floor — amortizing one warm-up across the matrix
    is the feature's reason to exist, so a sub-2x result means the
    fork path has regressed, whatever the baseline says.

Absolute throughput (``mcyclesPerSecFast``, ``minstrPerSecFast``:
simulated cycles and committed instructions per wall second of the fast
arm, in millions) is printed per case with its ratio to the baseline
when the baseline records it. It is never gated: wall clock drifts
across hosts and over time. Each report's ``build`` object (compiler,
build type, interprocedural optimisation on/off) says how the binary
was built; when the two reports' builds differ, or one has none, a
note says so, because absolute throughput from differently built
binaries does not compare. The note never gates either.

Every case is timed by one harness (``abCase`` in src/driver/perf.cc):
one discarded first-touch run of the fast arm, then N repetitions of
both arms back to back with alternating order. ``wallMs*`` are each
arm's fastest repetition; ``speedup`` is the median over repetitions
of the slow/fast ratio within one repetition. Host drift (other
tenants, frequency steps) inflates both runs of a back-to-back pair
alike, so the paired ratio cancels it, while the ratio of two minima
taken from different repetitions does not.

The parity margin exists because compute-bound cases sit at true
parity (~1.00x): the engine neither skips nor probes there, and even
the paired ratio wobbles a few percent with host scheduling and turbo
state. How much it wobbles depends on the host and the hour, so the
report measures it: each parity case also runs its fast arm against
itself through the same harness (the A/A arm), and ``aaStdErr`` is the
standard error of that arm's median ratio, estimated from the
interquartile range of its per-repetition ratios. The margin is six
standard errors, never more than 0.07: the A/B median also drifts
between reports in ways one report's A/A arm cannot see (over 11
reports of one binary on a shared 4-vCPU host, its deficit below 1.0
reached 5.1 standard errors), and a noisy host must not widen the
gate past 0.07. So a quiet host gets a tighter floor, and a genuine
regression like the pre-overhaul per-cycle probe tax (0.89x) trips
the gate on any host.

Exits nonzero listing every violation, for the perf-smoke CI job.
"""

import json
import sys

REL_TOLERANCE = 0.25
SPEEDUP_FLOOR = 0.75
SPEEDUP_ABS_FLOOR = 1.0
PARITY_STDERRS = 6.0
PARITY_MARGIN_CAP = 0.07
CKPT_SPEEDUP_ABS_FLOOR = 2.0
WORK_COUNTS = ("tickedCycles", "ffProbes")


def within(actual, expected, tolerance):
    if expected == 0:
        return actual == 0
    return abs(actual - expected) <= tolerance * abs(expected)


def compare_work_counts(name, base, case):
    """Exact-match errors for the deterministic work counts."""
    errors = []
    for member in WORK_COUNTS:
        if member in base and case.get(member) != base[member]:
            errors.append(
                f"{name}: {member} {case.get(member)} != baseline "
                f"{base[member]} — the engine ticks or probes "
                f"differently")
    return errors


def compare_checkpointed(name, base, case):
    """Gate one checkpoint/fork matrix case against its baseline."""
    errors = []
    if not case.get("checkpointed"):
        errors.append(f"{name}: baseline is checkpointed but the fresh "
                      f"case is not")
        return errors
    if not case.get("identicalStats", False):
        errors.append(f"{name}: stats deviate between the cold and "
                      f"forked arms")
    for member in ("pairs", "warms", "memForks"):
        if case.get(member) != base[member]:
            errors.append(
                f"{name}: {member} {case.get(member)} != baseline "
                f"{base[member]} — the fork path is not amortizing "
                f"one warm-up across the matrix")
    if not within(case["simCyclesMatrix"], base["simCyclesMatrix"],
                  REL_TOLERANCE):
        errors.append(
            f"{name}: simCyclesMatrix {case['simCyclesMatrix']} "
            f"outside {REL_TOLERANCE:.0%} of baseline "
            f"{base['simCyclesMatrix']}")
    if case["speedup"] < base["speedup"] * SPEEDUP_FLOOR:
        errors.append(
            f"{name}: speedup {case['speedup']:.2f}x below "
            f"{SPEEDUP_FLOOR:.0%} of baseline {base['speedup']:.2f}x")
    elif case["speedup"] < CKPT_SPEEDUP_ABS_FLOOR:
        errors.append(
            f"{name}: speedup {case['speedup']:.2f}x below the "
            f"absolute {CKPT_SPEEDUP_ABS_FLOOR:.1f}x checkpoint floor "
            f"— forking the warm state must at least halve the matrix "
            f"wall clock")
    else:
        print(f"{name}: speedup {case['speedup']:.2f}x "
              f"(baseline {base['speedup']:.2f}x, ckpt floor "
              f"{CKPT_SPEEDUP_ABS_FLOOR:.1f}x) OK")
    return errors


THROUGHPUT = (("mcyclesPerSecFast", "Mcycle/s"),
              ("minstrPerSecFast", "Minstr/s"))


def throughput_note(name, base, case):
    """One informational line of a case's absolute throughput, or None."""
    parts = []
    for member, unit in THROUGHPUT:
        if member not in case:
            continue
        part = f"{case[member]:.2f} {unit}"
        if base.get(member):
            part += f" ({case[member] / base[member]:.2f}x baseline)"
        parts.append(part)
    if not parts:
        return None
    return f"{name}: throughput " + ", ".join(parts)


def describe_build(report):
    build = report.get("build")
    if build is None:
        return "unrecorded"
    ipo = "IPO on" if build.get("ipo") else "IPO off"
    return (f"{build.get('compiler')} {build.get('compilerVersion')}, "
            f"{build.get('buildType')}, {ipo}")


def build_note(baseline, fresh):
    """A note when the two reports come from different builds, or None."""
    if baseline.get("build") == fresh.get("build"):
        return None
    return (f"note: builds differ (baseline: {describe_build(baseline)}; "
            f"fresh: {describe_build(fresh)}), so absolute throughput "
            f"is not comparable")


def compare(baseline, fresh):
    errors = []
    note = build_note(baseline, fresh)
    if note:
        print(note)
    fresh_by_name = {c["name"]: c for c in fresh.get("cases", [])}
    for base in baseline.get("cases", []):
        name = base["name"]
        case = fresh_by_name.get(name)
        if case is None:
            errors.append(f"{name}: missing from fresh report")
            continue
        note = throughput_note(name, base, case)
        if note:
            print(note)
        errors.extend(compare_work_counts(name, base, case))
        if base.get("checkpointed"):
            errors.extend(compare_checkpointed(name, base, case))
            continue
        if not case.get("identicalStats", False):
            errors.append(f"{name}: stats deviate between engine modes")
        if case["simCyclesFast"] != case["simCyclesSlow"]:
            errors.append(
                f"{name}: simCycles differ between modes "
                f"({case['simCyclesFast']} vs {case['simCyclesSlow']})")
        if "migrations" in base and \
                case.get("migrations") != base["migrations"]:
            errors.append(
                f"{name}: migrations {case.get('migrations')} != "
                f"baseline {base['migrations']}")
        if not within(case["simCyclesFast"], base["simCyclesFast"],
                      REL_TOLERANCE):
            errors.append(
                f"{name}: simCyclesFast {case['simCyclesFast']} "
                f"outside {REL_TOLERANCE:.0%} of baseline "
                f"{base['simCyclesFast']}")
        if not within(case["ipcTotal"], base["ipcTotal"], REL_TOLERANCE):
            errors.append(
                f"{name}: ipcTotal {case['ipcTotal']:.4f} outside "
                f"{REL_TOLERANCE:.0%} of baseline {base['ipcTotal']:.4f}")
        margin = 0.0
        if "aaStdErr" in base:
            if "aaStdErr" not in case:
                errors.append(f"{name}: the fresh case has no A/A arm")
                continue
            margin = min(PARITY_MARGIN_CAP,
                         PARITY_STDERRS * case["aaStdErr"])
        if case["speedup"] < base["speedup"] * SPEEDUP_FLOOR:
            errors.append(
                f"{name}: speedup {case['speedup']:.2f}x below "
                f"{SPEEDUP_FLOOR:.0%} of baseline "
                f"{base['speedup']:.2f}x")
        elif case["speedup"] < SPEEDUP_ABS_FLOOR - margin:
            errors.append(
                f"{name}: speedup {case['speedup']:.2f}x below the "
                f"absolute {SPEEDUP_ABS_FLOOR:.2f}x parity floor "
                f"(A/A margin {margin:.3f}) — the engine must never "
                f"cost wall clock")
        else:
            print(f"{name}: speedup {case['speedup']:.2f}x "
                  f"(baseline {base['speedup']:.2f}x) OK")
    return errors


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    errors = compare(baseline, fresh)
    for error in errors:
        print(f"PERF REGRESSION: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
