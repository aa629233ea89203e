"""Run the covwalk CLI under the span tracer, then write the spans.

    python3 perfbench/trace_cli.py SPANS.json walk run --config C --out D

The spans are written after the CLI returns; the time that takes is stored
in the file too, so that the caller can leave it out of the traced wall time.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import covwalk.cli

    code = covwalk.cli.main(argv)
    t0 = time.perf_counter()
    tracer.dump(spans_path)
    with open(spans_path + ".dump_s", "w", encoding="utf-8") as fh:
        json.dump(time.perf_counter() - t0, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
