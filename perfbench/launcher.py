"""Run the ``repro`` CLI with the benchmark's layer wrappers installed.

    python3 perfbench/launcher.py SPANS.json -- <repro arguments>

Equivalent to ``python3 -m repro <arguments>``, except that the imports
and the call into ``repro.__main__.main`` are timed, every entry point in
:data:`tracing.ENTRY_POINTS` records spans, and the spans are written to
``SPANS.json`` when the command returns (for ``serve``, after SIGTERM
stops the server).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import repro  # noqa: E402,F401

_T_REPRO = time.perf_counter()

import repro.__main__ as cli  # noqa: E402

_T_CLI = time.perf_counter()

import sys  # noqa: E402

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = tracing.Recorder()
    recorder.record("api.import", _T0, _T_REPRO)
    recorder.record("cli.import", _T_REPRO, _T_CLI)
    tracing.install(recorder)
    start = time.perf_counter()
    try:
        return cli.main(argv[3:])
    finally:
        recorder.record("cli.body", start, time.perf_counter())
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
