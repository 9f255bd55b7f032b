"""Benchmark-side launcher of the serving daemon.

Runs ``repro.cli.main(["serve", ...])`` unchanged -- the public calls
``repro serve`` makes -- after pinning BLAS to one thread and, with
``--trace 1``, installing span recorders around the engine's public
calls.  Once SIGTERM has drained the daemon, the spans go to ``--spans``.
``--info`` receives this process's pid and BLAS thread count before the
daemon starts.  Run from the repository root::

    python3 -m perfbench.daemon --trace 0 --info INFO --spans SPANS -- --fleet DIR --port 0 --ready-file READY
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
from typing import List, Optional

from perfbench import common

_PR_SET_PDEATHSIG = 1


def _drain_when_parent_dies() -> None:
    """Ask Linux to SIGTERM this process if the benchmark dies first.

    SIGTERM is the daemon's graceful drain, so a benchmark killed mid-run
    leaves no daemon behind.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def main(argv: Optional[List[str]] = None) -> int:
    _drain_when_parent_dies()
    if os.getppid() == 1:
        return 1  # the benchmark died before the guard was set
    common.pin_blas()
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description="perfbench daemon launcher")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--info", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1 :]

    threads = common.check_blas_pinned()
    from repro import cli

    from perfbench import probes, spans

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        probes.install_engine_probes(tracer)
    with open(args.info, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "blas_threads": threads}, fh)
    code = cli.main(["serve", *serve_args])
    if tracer is not None:
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
