"""Run ``repro-server`` in this process, optionally with layer tracing.

Usage: ``python3 perfbench/serve.py ROOT TRACE_OUT LEDGER_DIR -- SERVER_ARGS``
where ``TRACE_OUT`` and ``LEDGER_DIR`` are ``-`` for an untraced server.
A traced server wraps the same layer entry points as the in-process
workloads; each executed (cache-miss) job is one ledger record, rooted
at the ``execute_job`` call the server's executor thread makes.  On
shutdown the layer totals are written to ``TRACE_OUT``.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    root, trace_out, ledger_dir, separator, *server_args = argv
    assert separator == "--", "usage: serve.py ROOT TRACE_OUT LEDGER -- ARGS"
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.tools import server_cli

    tracer = None
    if trace_out != "-":
        from repro.server import app

        from layers import Tracer, thunk_stats

        tracer = Tracer(ledger_dir=ledger_dir, kind="perfbench.server_job")
        tracer.install()
        execute_job = app.execute_job

        def traced_execute_job(job):
            with tracer.job(program=job.label, encoding=job.encoding,
                            verify=job.verify_level):
                return execute_job(job)

        app.execute_job = traced_execute_job
    code = server_cli.main(server_args)
    if tracer is not None:
        tracer.uninstall()
        tracer.flush()
        snapshot = tracer.snapshot()
        snapshot["thunk"] = thunk_stats()
        with open(trace_out + ".tmp", "w") as handle:
            json.dump(snapshot, handle)
        os.replace(trace_out + ".tmp", trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
