"""Run one `afweak` CLI command with the layer tracer installed.

Usage: python3 perfbench/cli_child.py STATS_OUT ARG...

Times ``import afweak.cli``, installs the tracer, runs the command with
its normal stdout, writes the import time and the tracer aggregates to
STATS_OUT as JSON and the spans to STATS_OUT with the suffix
``.spans``.  Used only by the traced run of ``cli-cold``.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import afweak.cli
    import afweak.verify  # imported lazily by `verify`; bind it before tracing

    import_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.Tracer(max_spans=50_000).install()
    try:
        code = afweak.cli.run(sys.argv[2:])
    finally:
        sys.stdout.flush()
        stats = tracer.stats()
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump({"import_s": import_s, "stats": stats}, fh)
        tracer.write_spans(sys.argv[1] + ".spans")
    sys.exit(code)
