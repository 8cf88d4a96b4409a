"""Run ``preproj <args>`` like the console script, under the tracer.

The program's stdout is left untouched; the tracer's totals go to stderr
on one line that starts with ``perfbench-trace``.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import preproj.cli  # noqa: E402
from tracer import TRACE_MARK, Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = preproj.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.report()) + "\n")
    sys.exit(code)
