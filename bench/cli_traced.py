"""Run one becosmo CLI command under the tracer (traced presets-cli ops).

Usage: python bench/cli_traced.py <spans.json> <spawn wall time> <cli args...>

Records the start-up time from the parent's spawn to the entry of
``becosmo.cli.main``, runs the command with every layer wrapped, writes the
spans and start-up time to <spans.json> and exits with the command's code.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spans_path, spawned = Path(sys.argv[1]), float(sys.argv[2])
    import becosmo.cli

    from tracing import Tracer
    startup_ms = (time.time() - spawned) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        code = becosmo.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
    record = tracer.export()
    record["startup_ms"] = startup_ms
    spans_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
