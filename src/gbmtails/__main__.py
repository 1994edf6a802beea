"""The process entry of ``python -m gbmtails`` and the ``gbmtails`` script.

``run()`` keeps the cyclic garbage collector off the ~20k objects that numpy
and ``gbmtails.cli`` leave at start-up: collection is off while they import,
then they are frozen (``gc.freeze``), as is what is live when ``main``
returns, so neither later collections, forked pool workers nor teardown
walk them. Library use, ``cli.main`` included, leaves ``gc`` as it finds it.
"""

import gc
import os
import sys


def run() -> None:
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    try:
        code = main()
    finally:
        gc.freeze()
    try:
        sys.stdout.flush()
    except OSError:
        # main reported it (exit 3), or the command already failed (2, 4)
        # and the output it left is dropped unreported; either way keep the
        # interpreter's final flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
