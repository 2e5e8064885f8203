"""``repro serve`` with the layer wrappers installed, for ``--trace``.

Usage: ``python -m bench.serve_traced LEDGER.json serve ARGS...``.
Installs :class:`bench.ledger.Tracer`, records between SIGUSR1 (the
measured phase starts) and SIGUSR2 (it ends), runs
``repro.cli.main(ARGS)`` and, once the SIGTERM drain has returned,
writes the ledger to ``LEDGER.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from bench.ledger import Tracer


def main(argv) -> int:
    import repro.cli
    import repro.net.server  # noqa: F401  (bind wire helpers before wrapping)

    out = Path(argv[0])
    tracer = Tracer().install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.start())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.stop())
    code = repro.cli.main(argv[1:])
    out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
