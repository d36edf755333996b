"""Run one icsets command in this process with spans around the calls into
each layer, then write the spans as JSON to SPANS_FILE.

usage: python3 benchmarks/cli_traced.py SPANS_FILE ICSETS_ARGUMENTS...

Needs the icsets sources on PYTHONPATH.  Exits with the command's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import icsets.cli

    import_s = time.perf_counter() - started
    cached_build = icsets.posets.build_poset
    before = cached_build.cache_info()
    tracer = Tracer()
    tracer.install()
    record = tracer.begin("cli.main")
    try:
        return icsets.cli.main(argv)
    finally:
        tracer.end(record)
        after = cached_build.cache_info()
        with open(spans_file, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "cache": [after.hits - before.hits, after.misses - before.misses],
                    "spans": tracer.spans,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
