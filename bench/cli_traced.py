"""`python3 -m qpsurf.cli` with the layer tracer installed.

Run as `python3 bench/cli_traced.py <cli arguments>` with src and bench on
PYTHONPATH.  Behaves like the CLI (same stdin, stdout and exit code) and then
writes one line `BENCH-TRACE <json>` to stderr: the import time of
qpsurf.cli and the tracer's summary of the call of `main`.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import qpsurf.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer().install()
    code = qpsurf.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("BENCH-TRACE %s\n" % json.dumps(dict(tracer.summary(), import_s=import_s)))
    sys.exit(code)
