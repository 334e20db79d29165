"""``python -m cosmo.cli`` with per-layer timing, for the traced cli_calls run.

Takes the same arguments as the cosmo command and prints the same output.
Its trace summary goes to the last line of stderr, after ``PERFBENCH-TRACE``:
the CPU time the interpreter spent before this script started, the CPU time
of ``import cosmo.cli``, and the tracer's self times and counters.
"""

import time

interpreter_ns = time.process_time_ns()

import cosmo.cli  # noqa: E402

import_ns = time.process_time_ns() - interpreter_ns

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = cosmo.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    summary = tracer.summary()
    summary["counts"].update({"cli.calls": 1, "cli.interpreter_ns": interpreter_ns, "cli.import_ns": import_ns})
    print("PERFBENCH-TRACE " + json.dumps(summary), file=sys.stderr)
sys.exit(code)
