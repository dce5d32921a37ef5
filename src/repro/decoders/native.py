"""Loader of the native blossom kernel (``_blossom.c``).

On first use the C source is compiled with the system ``cc`` into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``).  The library's
file name carries the sha1 of the source and the compile flags, so an
edited kernel never loads a stale build.  Each build goes to a temp
name first and is moved into place with ``os.replace``: a process that
forks while another compiles never loads a half-written file.  The
library is loaded with :mod:`ctypes`.

:func:`kernel` returns the matching function, or ``None`` with the
reason in :data:`error` when no compiler or no usable build exists.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

_SRC = Path(__file__).with_name("_blossom.c")
#: Blossom's tie-breaks follow the float arithmetic exactly: no fused
#: multiply-add, no fast-math.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_kernel: Optional[Callable[..., int]] = None
#: Why the kernel is unavailable (``None`` until a load failed).
error: Optional[str] = None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def _build() -> Path:
    src = _SRC.read_bytes()
    tag = hashlib.sha1(src + " ".join(_FLAGS).encode()).hexdigest()
    lib = _cache_dir() / f"blossom-{tag}.so"
    if lib.exists():
        return lib
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise RuntimeError("no C compiler (cc) on PATH")
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=lib.parent)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SRC)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"cc failed: {proc.stderr.strip()[:500]}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def kernel() -> Optional[Callable[..., int]]:
    """The ``repro_blossom_match`` entry point, compiled and loaded on
    first call; ``None`` (reason in :data:`error`) when unavailable."""
    global _kernel, error
    if _kernel is None and error is None:
        try:
            fn = ctypes.CDLL(str(_build())).repro_blossom_match
        except (OSError, RuntimeError, AttributeError) as exc:
            # No compiler, failed build, unwritable cache, unloadable
            # library or missing symbol: the caller falls back.
            error = f"{type(exc).__name__}: {exc}"
        else:
            p = ctypes.c_void_p
            fn.argtypes = [ctypes.c_int, p, p, p, ctypes.c_int64,
                           ctypes.c_int64, ctypes.c_double, p]
            fn.restype = ctypes.c_int
            _kernel = fn
    return _kernel
