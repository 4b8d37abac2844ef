import re
import time

import pytest

CRITERIA = {
    1: "gradient correctness of every loss",
    2: "mixture fit matches multi-restart oracle",
    3: "contrastive loss matches direct-sum oracle",
    4: "positive/negative selection semantics",
    5: "calibration identity and suppression",
    6: "teacher EMA exactness, no teacher gradients",
    7: "component ablation ordering and gap",
    8: "byte-identical metrics for identical config and seed",
    9: "pseudo-label accuracy over all unlabeled samples improves over "
       "training",
}

_outcomes = {}


@pytest.fixture(scope="session")
def verification():
    """`seqssl verify`'s checks, run once per session and shared by the
    acceptance criteria 1-3 and the CLI test: (all_passed, results, wall
    seconds of the whole run)."""
    from seqssl import verify
    t0 = time.monotonic()
    ok, results = verify.run_verification()
    return ok, results, time.monotonic() - t0


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"::test_criterion_(\d+)", report.nodeid)
    if m:
        n = int(m.group(1))
        _outcomes[n] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_outcomes):
        status = "PASS" if _outcomes[n] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {n} ({CRITERIA[n]}): {status}")
