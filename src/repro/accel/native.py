"""Build and load the compiled layer loop nest (``kernel.c``).

The batch kernel (:mod:`repro.serve.batch`) runs each iteration, and
each continuous-batching engine step, as one foreign call into
``kernel.c`` when this module can provide it, and on its numpy code
path otherwise.  There is nothing to configure: the
library is built at first use with the system C compiler and cached per
user, and any failure to build or load it falls back to numpy with one
``RuntimeWarning`` naming the reason.

* **flags** — :data:`FLAGS`: ``-O3 -march=native`` with
  ``-ffp-contract=off``, so no multiply-add is fused and float results
  stay bit-exact with numpy; never ``-ffast-math``.
* **cache** — ``$XDG_CACHE_HOME/repro/kernels`` (default
  ``~/.cache/repro/kernels``), one file per :func:`cache_key`: a hash
  of the source, the flags, the compiler's ``--version`` and, because
  of ``-march=native``, the host's CPU flags.  A later process of the
  same user only loads the file.
* **races** — the compiler writes a private temporary file that is then
  renamed into place, so concurrent cold starts (threads or processes)
  never load a half-written library; within a process one lock makes
  the build happen once.
* **damage** — a cached file that fails to load is rebuilt once; if it
  still fails, the numpy kernel is used.

``python -m repro.accel.native`` prints what was loaded (or why not)
and exits 1 on the numpy fallback.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "FLAGS",
    "SOURCE",
    "NativeKernel",
    "cache_dir",
    "cache_key",
    "fallback_reason",
    "kernel_info",
    "load",
]

#: The C source of the layer loop nest.
SOURCE = Path(__file__).with_name("kernel.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps float bit-exact with
#: numpy; ``-march=native`` lets the lane loops use the host's widest
#: vectors (the cache key then includes the CPU flags).
FLAGS: Tuple[str, ...] = (
    "-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared",
)

_VOID_P = ctypes.c_void_p
_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_SIGNATURES = {
    "ldpc_iterate_f64": (_VOID_P, _VOID_P, _I32, _I32, _I64, _VOID_P,
                         _VOID_P, _VOID_P, ctypes.c_double, _VOID_P),
    "ldpc_iterate_i16": (_VOID_P, _VOID_P, _I32, _I32, _I64, _VOID_P,
                         _VOID_P, _VOID_P, ctypes.c_int16, ctypes.c_int16,
                         _VOID_P),
    "ldpc_syndrome_f64": (_VOID_P, _VOID_P, _I32, _I32, _I64, _VOID_P,
                          _VOID_P, _VOID_P),
    "ldpc_syndrome_i16": (_VOID_P, _VOID_P, _I32, _I32, _I64, _VOID_P,
                          _VOID_P, _VOID_P),
    "ldpc_step_f64": (_VOID_P, _VOID_P, _I32, _I32, _I64, _VOID_P, _VOID_P,
                      _VOID_P, ctypes.c_double, _VOID_P, _VOID_P, _VOID_P,
                      _VOID_P, _VOID_P, _I32, _VOID_P, _VOID_P),
    "ldpc_step_i16": (_VOID_P, _VOID_P, _I32, _I32, _I64, _VOID_P, _VOID_P,
                      _VOID_P, ctypes.c_int16, ctypes.c_int16, _VOID_P,
                      _VOID_P, _VOID_P, _VOID_P, _VOID_P, _I32, _VOID_P,
                      _VOID_P),
}
#: entry points that return a count (the rest return nothing)
_RESTYPES = {"ldpc_step_f64": _I64, "ldpc_step_i16": _I64}


class NativeKernel(object):
    """The loaded library: its entry points and where it came from.

    Entry points take raw addresses (``c_void_p``), never
    ``ndpointer`` argtypes, whose per-call checks would cost more than
    a width-1 iteration.
    """

    def __init__(self, lib: ctypes.CDLL, path: Path, compiler: str,
                 source_sha256: str) -> None:
        self.lib = lib
        self.path = path
        self.compiler = compiler
        self.source_sha256 = source_sha256
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = _RESTYPES.get(name)
        self.iterate_f64 = lib.ldpc_iterate_f64
        self.iterate_i16 = lib.ldpc_iterate_i16
        self.syndrome_f64 = lib.ldpc_syndrome_f64
        self.syndrome_i16 = lib.ldpc_syndrome_i16
        self.step_f64 = lib.ldpc_step_f64
        self.step_i16 = lib.ldpc_step_i16

    def info(self) -> Dict[str, Any]:
        """Provenance: compiler version, flags and source hash."""
        return {
            "compiler": self.compiler,
            "flags": list(FLAGS),
            "source_sha256": self.source_sha256,
        }


class _BuildError(Exception):
    """The library could not be built or loaded (message = reason)."""


_lock = threading.Lock()
_UNSET = object()
_kernel: Any = _UNSET
_reason: Optional[str] = None


def cache_dir() -> Path:
    """Per-user directory of built libraries."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro" / "kernels"


def cache_key(source: bytes, flags: Sequence[str], compiler_version: str,
              cpu_flags: str = "") -> str:
    """Hash of everything the built library depends on."""
    digest = hashlib.sha256()
    for part in (source, "\0".join(flags).encode(),
                 compiler_version.encode(), cpu_flags.encode()):
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


def _find_compiler() -> Optional[str]:
    """Path of the system C compiler, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compiler_version(cc: str) -> str:
    try:
        out = subprocess.run([cc, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _BuildError(f"{cc} --version failed: {exc}") from exc
    return out.stdout.decode("utf-8", "replace").strip()


def _cpu_flags() -> str:
    """The host's CPU feature flags (the target of ``-march=native``)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.split(":")[0].strip() in ("flags", "Features"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _compile(cc: str, source: Path, target: Path) -> None:
    """Build ``source`` into ``target`` via a temporary file and rename."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=".build-",
                               suffix=".so")
    os.close(fd)
    try:
        out = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(source)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=300,
        )
        if out.returncode != 0:
            text = out.stdout.decode("utf-8", "replace").strip()
            raise _BuildError(f"{cc} exited {out.returncode}: {text[-500:]}")
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _BuildError(f"building {source.name} failed: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


class _Build(NamedTuple):
    """Where the library for this source, compiler and host lives."""

    cc: str
    compiler: str  # first line of ``cc --version``
    source_sha256: str
    path: Path


def _build_plan() -> _Build:
    cc = _find_compiler()
    if cc is None:
        raise _BuildError("no C compiler (cc, gcc or clang) on PATH")
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise _BuildError(f"cannot read {SOURCE}: {exc}") from exc
    version = _compiler_version(cc)
    cpu = _cpu_flags() if "-march=native" in FLAGS else ""
    key = cache_key(source, FLAGS, f"{cc}\n{version}", cpu)
    return _Build(
        cc=cc,
        compiler=version.splitlines()[0] if version else cc,
        source_sha256=hashlib.sha256(source).hexdigest(),
        path=cache_dir() / f"ldpc-kernel-{key[:32]}.so",
    )


def _open(build: _Build) -> NativeKernel:
    try:
        lib = ctypes.CDLL(str(build.path))
        return NativeKernel(lib, build.path, build.compiler,
                            build.source_sha256)
    except (OSError, AttributeError) as exc:
        raise _BuildError(f"loading {build.path} failed: {exc}") from exc


def _build_and_load() -> NativeKernel:
    build = _build_plan()
    if build.path.exists():
        try:
            return _open(build)
        except _BuildError:
            pass  # a damaged cache entry: rebuild it once
    _compile(build.cc, SOURCE, build.path)
    return _open(build)


def load() -> Optional[NativeKernel]:
    """The compiled kernel, building it on first use; None on fallback.

    Thread-safe and memoized per process: the first caller builds or
    loads the library, later callers get the same object.  A failure
    is remembered (see :func:`fallback_reason`) and warned about once.
    """
    global _kernel, _reason
    kernel = _kernel
    if kernel is not _UNSET:
        return kernel
    with _lock:
        if _kernel is _UNSET:
            try:
                _kernel = _build_and_load()
            except _BuildError as exc:
                _kernel, _reason = None, str(exc)
                warnings.warn(
                    f"compiled LDPC kernel unavailable ({_reason}); "
                    "decoding with the numpy kernel",
                    RuntimeWarning, stacklevel=2,
                )
        return _kernel


def fallback_reason() -> Optional[str]:
    """Why :func:`load` returned None (None if it did not)."""
    load()
    return _reason


def kernel_info() -> Union[Dict[str, Any], str]:
    """Which kernel decodes: the library's :meth:`NativeKernel.info`,
    or ``"numpy"`` on the fallback."""
    kernel = load()
    return "numpy" if kernel is None else kernel.info()


def _reset() -> None:
    """Forget the loaded library (tests only)."""
    global _kernel, _reason
    with _lock:
        _kernel, _reason = _UNSET, None


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    info = kernel_info()
    print(json.dumps({"kernel": info, "fallback_reason": _reason}, indent=2))
    sys.exit(1 if info == "numpy" else 0)
