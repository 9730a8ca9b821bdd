"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python perfbench/serve_child.py SPANS_FILE serve [ARGS...]``

Runs the real ``repro`` command line in this process after wrapping the
layer boundaries (:func:`tracing.install`) and the HTTP handler, whose
span takes the op id from the ``X-Bench-Op`` request header. When the
command returns (after its SIGTERM drain) the spans are written to
SPANS_FILE and the command's exit code is passed on.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, command = argv[0], argv[1:]
    from repro.cli import main as repro_main
    from repro.service.server import ServiceRequestHandler

    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    handle = ServiceRequestHandler.do_POST

    def do_post(self) -> None:
        recorder.set_op(self.headers.get("X-Bench-Op"))
        span = recorder.open("service.http")
        try:
            handle(self)
        finally:
            recorder.close(span)
            recorder.set_op(None)

    ServiceRequestHandler.do_POST = do_post
    recorder.start_gc()
    try:
        code = repro_main(command)
    finally:
        recorder.stop_gc()
        ServiceRequestHandler.do_POST = handle
        tracing.uninstall(patches)
        recorder.dump(spans_file)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
