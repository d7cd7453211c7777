import sys

import pytest

# One line per acceptance criterion, collected by the `acceptance_report`
# fixture and replayed after the run so the verdicts are visible without -s.
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    def report(criterion: int, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        line = f"[acceptance] criterion {criterion}: {status}"
        if detail:
            line += f" - {detail}"
        _ACCEPTANCE_LINES.append((criterion, line))
        print(line)

    return report


@pytest.fixture(scope="session")
def critical_bound():
    """How far a critical value of ``robustcausal._critical`` may lie from
    scipy's, its oracle, at ``df`` degrees of freedom: 1e-12 of its size (of
    1 below 1), or ``4 eps df`` of it where that is wider (the continued
    fraction loses about ``eps * df`` relative). Fixed before the first run."""
    def bound(value: float, df: float) -> float:
        return max(1e-12, 4 * sys.float_info.epsilon * df) * max(abs(value), 1.0)

    return bound


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
