"""The kernel the package runs: the C extension built from ``_kernel.c``,
or else the pure-Python module ``_kernel_py``, which documents the contract
of both and gives the same bits.

``_kern`` is that module, chosen when this module is first imported
(``_c_kernel``), and ``KERNEL_BACKEND`` reads ``"c"`` or ``"python"``.
Every caller reads the kernel as ``backend._kern`` at each call: ``numeric``
its march and its Ricci and residual stacks, ``cli`` the cells of its
tables, ``lapse`` the float image of a decoded number list and the table
of B, and ``pairs`` the Ricci scalar of one
frame, which ``validate`` reads through a buffer of the ``array`` module.
This module imports the standard library only, so that a short command on
the C kernel loads no numpy; ``_kernel_py`` imports numpy, and so does the
fallback.

The build runs the interpreter's own compiler once per key and caches the
library in the package's ``__pycache__``.  Where that directory cannot be
written, as in an install the user may not write to, the library is built
into the user's cache, ``$XDG_CACHE_HOME/spinorflow`` or else
``~/.cache/spinorflow``.  A build that fails is recorded under its key in
the cache it was tried in, so later processes skip the compiler and fall
back at once.  Any failure falls back to ``_kernel_py`` and prints nothing.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import sysconfig
import zlib
from pathlib import Path


def _compile_flags() -> list[str]:
    """The command that builds ``_kernel.c``, less its file names: the
    interpreter's shared-library compiler and include directories, with no
    multiply and add fused and no fast-math."""
    cfg = sysconfig.get_config_var
    includes = dict.fromkeys(sysconfig.get_path(k) for k in ("include", "platinclude"))
    return [*cfg("LDSHARED").split(), *cfg("CCSHARED").split(), "-O2",
            "-ffp-contract=off", "-fno-fast-math", *(f"-I{d}" for d in includes)]


def _user_cache() -> Path:
    """The per-user cache that takes the library where the package's own
    cache cannot be written."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "spinorflow"


def _writable(directory: Path) -> bool:
    """Whether ``directory`` exists, or can be made, and can be written."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _c_kernel(cache: Path):
    """The kernel built from ``_kernel.c`` into the directory ``cache`` on
    first use, or into ``_user_cache()`` where ``cache`` holds no library and
    cannot be written; ``_kernel_py`` when it cannot be built or loaded.

    The library's name is keyed by a CRC-32 of the C source and of
    ``_compile_flags()``, so a changed source or compiler builds anew.  The
    compiler writes a temporary file, which then replaces the library's
    name in one step, so a process never loads a half-written library.
    Its output is captured, and a failure prints nothing.  A build that
    fails, in either cache, leaves an empty file named for the library with
    ``.failed`` added, and no later process runs the compiler for that key
    (see ``_build_once``); a directory that cannot be written is never
    compiled into."""
    source = Path(__file__).with_name("_kernel.c")
    try:
        flags = _compile_flags()
        key = zlib.crc32("\0".join(flags).encode(), zlib.crc32(source.read_bytes()))
        path = cache / f"_kernel-{key:08x}{sysconfig.get_config_var('EXT_SUFFIX')}"
        if not path.exists() and not _writable(cache):
            path = _user_cache() / path.name
        if not path.exists():
            _build_once(flags, source, path)
        spec = importlib.util.spec_from_file_location(f"{__package__}._kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:  # whatever failed, _kernel_py gives the same bits
        from . import _kernel_py

        return _kernel_py


def _build_once(flags: list[str], source: Path, path: Path) -> None:
    """``_build``, unless a build of ``path`` failed before or its directory
    cannot be written, each of which raises.  A failure the compiler
    reports, or a missing compiler, is recorded; a timeout or a compiler
    killed by a signal is not, so the next process tries again."""
    import subprocess  # only here: a built kernel loads without it

    failed = path.with_name(f"{path.name}.failed")
    if failed.exists() or not _writable(path.parent):
        raise FileNotFoundError(path)
    try:
        _build(flags, source, path)
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        if getattr(exc, "returncode", 1) > 0:
            failed.touch()
        raise


def _build(flags: list[str], source: Path, path: Path) -> None:
    """Compile ``source`` to the library ``path`` through a temporary file."""
    import subprocess  # only here: a built kernel loads without it

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([*flags, str(source), "-o", str(tmp)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_kern = _c_kernel(Path(__file__).with_name("__pycache__"))
sys.modules[_kern.__name__] = _kern  # a loaded C kernel shows as imported
KERNEL_BACKEND = "c" if _kern.__name__ == f"{__package__}._kernel" else "python"
