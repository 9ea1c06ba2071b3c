"""Replay the golden corpus's numpy-free runs on this interpreter, and compare
their bytes with ``tests/golden/``.

Usage, from anywhere, with any Python the package supports (numpy need not
be installed):

    python3 tools/replay_corpus.py

The script copies ``src/`` to a temporary directory, points
``XDG_CACHE_HOME`` at a directory beside it, and imports ``spinorflow``
from the copy: the C kernel is built there, and neither the checkout's
``__pycache__`` nor the user's cache is written.  It then runs, in this
process, each run of the corpus whose command loads no numpy on the C
kernel: ``validate`` and ``classify`` of an input with no tabulated lapse.
Each run goes through ``tests/golden/regenerate.py``'s ``run``, imported once
``spinorflow`` has loaded from the copy, and its exit code, stdout and stderr
are compared with the corpus byte for byte.

It prints the interpreter, the kernel backend, whether numpy was loaded,
one line per mismatch, and the counts of runs replayed, skipped and
mismatched.  It exits 1 on any mismatch, or when it replays nothing.  It
never writes the corpus.

Standard library only.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the commands that load no numpy on the C kernel, given no tabulated lapse
REPLAYED = ("validate", "classify")


def replayable(data: dict, argv: list[str]) -> bool:
    """Whether the run ``argv`` on the input ``data`` loads no numpy on the
    C kernel."""
    beta = data.get("beta")
    return argv[0] in REPLAYED and not (isinstance(beta, dict)
                                         and beta.get("kind") == "tabulated")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = shutil.copytree(ROOT / "src", os.path.join(tmp, "src"),
                              ignore=shutil.ignore_patterns("__pycache__"))
        os.environ["XDG_CACHE_HOME"] = os.path.join(tmp, "cache")
        sys.path.insert(0, src)
        from spinorflow import backend, cli

        if not cli.__file__.startswith(src + os.sep):
            raise SystemExit(f"replay_corpus: imported {cli.__file__}, not the copy in {src}")
        # the corpus's own runner, which runs the copy's cli.main
        sys.path.insert(0, str(ROOT / "tests"))
        from golden import regenerate

        replayed = skipped = 0
        mismatched = []
        for path in regenerate.corpus_files():
            record = json.loads(path.read_text(encoding="utf-8"))
            for want in record["runs"]:
                if not replayable(record["input"], want["argv"]):
                    skipped += 1
                    continue
                replayed += 1
                got = regenerate.run(record["input"], want["argv"])
                wrong = [k for k in ("exit", "stdout", "stderr") if got[k] != want[k]]
                if wrong:
                    mismatched.append(f"{path.stem}: {' '.join(want['argv'])}: "
                                      f"{', '.join(wrong)} differ")
    print(f"python {platform.python_version()}, kernel {backend.KERNEL_BACKEND}, "
          f"numpy loaded: {'yes' if 'numpy' in sys.modules else 'no'}")
    for line in mismatched:
        print(f"mismatch: {line}")
    print(f"replayed {replayed}, skipped {skipped}, mismatched {len(mismatched)}")
    return 1 if mismatched or not replayed else 0


if __name__ == "__main__":
    sys.exit(main())
