"""Run ``repro`` with the span recorder installed in the server process.

Usage: ``python perfbench/serve_traced.py TRACE_OUT serve [serve args]``.

Installs the kernel and service layer wrappers (see ``tracing.py``),
runs the CLI with the remaining arguments and, once it returns (the
service exits on SIGTERM after draining), writes the spans, counters
and per-layer metrics to ``TRACE_OUT``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import (Recorder, install_kernel_layers,  # noqa: E402
                     install_service_layers)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install_kernel_layers(rec)
    install_service_layers(rec)
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        rec.write(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
