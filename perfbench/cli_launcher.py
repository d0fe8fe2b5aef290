"""Run the ``eiscong`` command from this checkout's sources.

    python3 perfbench/cli_launcher.py ARGS...              # same as `eiscong ARGS...`
    python3 perfbench/cli_launcher.py --trace-out F ARGS...  # traced, spans written to F
    python3 perfbench/cli_launcher.py --import-only        # import eiscong.cli, print "ready"

Untraced it does what the installed console script does
(``sys.exit(eiscong.cli.run(argv))``).  Traced it installs the layer
wrappers after the import, so ``cli.run`` and every layer below it are
spans, and writes the spans when ``run`` returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--import-only"]:
        import eiscong.cli  # noqa: F401
        print("ready", flush=True)
        return 0
    if argv[:1] == ["--trace-out"]:
        import eiscong.cli
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.op_id = 0
        try:
            return eiscong.cli.run(argv[2:])
        finally:
            tracer.dump(argv[1], role="cli")
    from eiscong.cli import run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
