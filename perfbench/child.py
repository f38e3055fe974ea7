"""Command server: import `ohtlab` once, run each command in a forked child.

    python3 child.py SRC_DIR

Imports `ohtlab.cli` from SRC_DIR, timing the import, and prints one JSON
line with that time and the library versions.  Standard output carries
only these answers; whatever the program prints goes to standard error.  Then it reads one JSON
request a line from standard input and answers each with one JSON line.
A request is

    {"argv": [...], "cwd": DIR, "result": PATH, "traced": 0|1}

and runs `cli.main(argv)` in a child forked from the freshly imported
interpreter, so no command sees what another one left in memory.  The
child writes its exit code, its command window, `ru_maxrss` and (traced)
the spans of the wrapped public functions to PATH.  With `"argv": null`
the child runs the benchmark's fixed reference computation instead and
writes its time.  The answers are `{"pid": <child pid>}` once the child
has started and `{"status": <its exit code>}` once it has ended.  The
server exits at the end of its input.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing


def run_request(req: dict, ohtlab_cli) -> int:
    """Body of the forked child; returns its exit code."""
    os.chdir(req["cwd"])
    if req["argv"] is None:
        import reference     # numpy is loaded by now; the set-up time stays the program's
        record = {"rc": 0, "reference_s": reference.run("reference.jsonl")}
    else:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer) if req["traced"] else []
        start = time.perf_counter()
        rc = ohtlab_cli.main(req["argv"])
        end = time.perf_counter()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record = {"rc": rc, "cmd_start": start, "cmd_end": end,
                  "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
                  "spans": tracer.spans, "missing_spans": missing}
    Path(req["result"]).write_text(json.dumps(record))
    return record["rc"]


def serve(ohtlab_cli, protocol) -> None:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            try:
                rc = run_request(req, ohtlab_cli)
            except BaseException:
                traceback.print_exc()
                rc = 70
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(rc if isinstance(rc, int) and 0 <= rc < 256 else 1)
        print(json.dumps({"pid": pid}), file=protocol, flush=True)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), file=protocol,
              flush=True)


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)        # what the program prints goes to the log, not into the protocol
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import ohtlab.cli
    import numpy
    import scipy
    import_s = time.perf_counter() - t0
    if not Path(ohtlab.__file__).resolve().is_relative_to(src):
        print(f"ohtlab was imported from {ohtlab.__file__}, not from {src}", file=sys.stderr)
        return 3
    print(json.dumps({"import_s": import_s,
                      "versions": {"python": platform.python_version(),
                                   "numpy": numpy.__version__, "scipy": scipy.__version__}}),
          file=protocol, flush=True)
    serve(ohtlab.cli, protocol)
    return 0


if __name__ == "__main__":
    sys.exit(main())
