"""Start ``gpu-blob serve`` with the trace wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SRC TRACE.jsonl SERVE-ARGS...``

Installs the wrappers of :func:`tracer.install_serve`, runs
``repro.serve.service.main`` with the remaining arguments until SIGTERM
drains it, then writes the spans and aggregates to TRACE.jsonl.
"""

import sys
from pathlib import Path


def main() -> int:
    src, out = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, install_serve

    tracer = Tracer(out.parent)
    install_serve(tracer)
    from repro.serve import service

    code = service.main(sys.argv[3:])
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
