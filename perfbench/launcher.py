"""Run one heavytail CLI command with the layer tracer installed.

Usage: ``python launcher.py SPANS_FILE LABEL COMMAND [ARGS...]``.  Runs
``heavytail.cli.main([COMMAND, ARGS...])`` inside a ``cli.main`` span
labelled LABEL, writes the spans to SPANS_FILE and exits with main's code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_source  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, label, cli_args = Path(argv[0]), argv[1], argv[2:]
    use_checkout_source()
    import heavytail.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", heavytail.cli.main, cli_args, label=label)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
