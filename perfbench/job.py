"""One benchmark job: a fresh ``seqlim`` process running ``seqlim.cli.main``.

Usage: python3 perfbench/job.py [seqlim arguments...]

With no arguments the job only sets up and exits; the benchmark runs such
jobs as extra set-up samples.

The benchmark puts ``src`` on PYTHONPATH and names a record file in
PERFBENCH_RECORD.  Before running the command, the job imports ``seqlim.cli``
and runs the constant catalog's self-check, then notes the time; the
benchmark's ``setup_s`` is that moment minus the moment it started the
process (both on the system-wide monotonic clock).  With PERFBENCH_TRACE=1
the layers are wrapped after set-up, and the spans and counts go into the
record when the command ends.
"""

import json
import os
import sys
import time


def main() -> int:
    import seqlim.cli
    from seqlim import recognize

    recognize._validate_catalog()
    record = {"ready": time.monotonic()}
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from layers import Tracer

        tracer = Tracer(os.environ.get("PERFBENCH_JOB_ID", ""))
        tracer.install()
    try:
        return seqlim.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
    finally:
        if tracer is not None:
            record.update(tracer.export())
        with open(os.environ["PERFBENCH_RECORD"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
