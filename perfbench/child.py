"""One benchmark sample: run CLI invocations through ``outfn.cli.main``.

Usage: ``python3 child.py REQUEST.json``.  The request names the source
directory to import ``outfn`` from, the working directory, the argv
lists, whether to trace, and where to write the result.  The sample is
pinned to one CPU.  Its wall time covers the ``cli.main`` calls only;
interpreter start and ``import outfn.cli`` are measured separately as
set-up.
"""

from __future__ import annotations

import json
import os
import sys
import time


def run(request: dict) -> dict:
    sys.path.insert(0, request["src"])
    import outfn.cli

    tracer = None
    if request["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer().install()
    codes = []
    try:
        start = time.perf_counter()
        for argv in request["argvs"]:
            codes.append(outfn.cli.main(argv))
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"codes": codes, "wall_s": wall_s, "outfn": outfn.cli.__file__}
    if tracer is not None:
        result["trace"] = tracer.dump(request["spans"], wall_s)
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        request = json.load(fh)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(request["cwd"])
    result = run(request)
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
