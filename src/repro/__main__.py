"""``python -m repro`` entry point (also the ``repro-route`` script)."""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; ``serve`` latches SIGTERM before the heavy imports.

    The CLI has no options before its subcommand, so ``serve`` is
    always the first argument. Everything else is ``repro.cli.main``.
    """
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["serve"]:
        from repro.startup import latch_sigterm

        latch_sigterm()
    from repro.cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
