"""In-process runner for ``oddsrule.cli.main``, for the CLI tests.

``CliRunner().invoke(main, args)`` swaps ``sys.stdout`` and ``sys.stderr``
for in-memory streams, calls ``main(args)`` and turns ``SystemExit`` into
an exit code.  Any other exception reaches the test.
"""

import contextlib
import io
from typing import NamedTuple


class _Stream(io.StringIO):
    """An in-memory stream that also appends each write to a shared log."""

    def __init__(self, log: list):
        super().__init__()
        self._log = log

    def write(self, text):
        self._log.append(text)
        return super().write(text)


# a NamedTuple, not a dataclass: the probes in test_cli.py check that the
# commands they run through this runner leave dataclasses unloaded
class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in write order


class CliRunner:
    def invoke(self, main, args) -> Result:
        log = []
        out, err = _Stream(log), _Stream(log)
        exit_code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                exit_code = exc.code or 0
        return Result(exit_code, out.getvalue(), err.getvalue(), "".join(log))
