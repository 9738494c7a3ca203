"""Shared pytest wiring.

The acceptance suite records one line per criterion in `criterion_lines`,
and criterion 8's trend matrix one line per run in `matrix_lines`; this hook
replays them after the run through the terminal reporter, which writes
outside pytest's capture, so they show up even for passing tests under a
plain `pytest` invocation.
"""

criterion_lines: list[str] = []
matrix_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, lines in (("criterion 8 trend matrix", matrix_lines), ("acceptance criteria", criterion_lines)):
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.line(line)
