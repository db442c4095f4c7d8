"""The native one-pass SAT kernel: ``native.c`` built on first use, loaded
with :mod:`ctypes`.

The kernel makes the paper's 1R1W pass on the host: one read and one write
per element, bit-identical to ``a.astype(acc).cumsum(0).cumsum(1)`` (see
the comment at the top of ``native.c``).  It is instantiated for the
``(input, accumulator)`` dtype pairs in :data:`PAIRS`: each accumulator
dtype over itself, and the narrow integers the exact policy widens to
``int64``, which the pass widens as it reads them.  :func:`sat_into` is the
one entry point callers use: the kernel when it fits, else NumPy.

Build and cache.  The first process that needs the kernel compiles it with
the system C compiler (``$CC``, else ``cc``, ``gcc`` or ``clang``) using
:data:`CFLAGS` into a per-user cache directory: ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), or ``<tempdir>/repro-<uid>`` when that cannot
be used.  The shared object is named by a CRC of the source and the flags,
so an edited source builds a new file, and is written under a temporary
name and ``os.replace``\\ d into place, so processes that build it at the
same time never load a torn file.  Later processes only ``dlopen`` it: the
warm path starts no subprocess.  Calls through :class:`ctypes.CDLL` release
the GIL.

Without a compiler (or a usable cache directory) :func:`kernel` returns
``None`` after one :class:`RuntimeWarning`, and :func:`sat_into` runs NumPy's
double cumsum instead, which gives the same bits.
"""

from __future__ import annotations

import ctypes
import os
import threading
import warnings
import zlib

import numpy as np

#: The kernel source, shipped as package data next to this module.
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")

#: Compiler flags.  No ``-ffast-math`` (it would reassociate the sums) and no
#: ``-march=native`` (the cache may be shared between machines);
#: ``-ffp-contract=off`` forbids fused multiply-adds and ``-fwrapv`` makes
#: signed overflow wrap as NumPy's int64 arithmetic does.
CFLAGS = ("-O3", "-ffp-contract=off", "-fwrapv", "-shared", "-fPIC")

#: ``(input, accumulator)`` dtype pairs the kernel is instantiated for (C
#: symbol ``sat_<input>_<accumulator>``).
PAIRS = tuple((np.dtype(name), np.dtype(name))
              for name in ("float32", "float64", "int64", "uint64")) \
    + tuple((np.dtype(name), np.dtype("int64"))
            for name in ("int8", "int16", "int32", "uint8", "uint16",
                         "uint32"))


class NativeUnavailable(RuntimeError):
    """The native kernel could not be built or loaded."""


class NativeKernel:
    """The loaded shared object, one typed entry point per dtype pair."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lib = ctypes.CDLL(path)
        self._fns = {}
        for src, acc in PAIRS:
            fn = getattr(self._lib, f"sat_{src.name}_{acc.name}")
            fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_ssize_t, ctypes.c_ssize_t)
            fn.restype = ctypes.c_int
            self._fns[src, acc] = fn

    def sat(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the SAT of ``a`` into ``out`` and return ``out``.

        Both must be non-empty, 2-D, C-contiguous and of the same shape, with
        ``(a.dtype, out.dtype)`` in :data:`PAIRS`.  ``out`` may be ``a``
        itself (the pass then runs in place) but must not otherwise overlap
        it.
        """
        fn = self._fns.get((a.dtype, out.dtype))
        if fn is None or a.ndim != 2 or a.size == 0 \
                or out.shape != a.shape \
                or not a.flags.c_contiguous or not out.flags.c_contiguous \
                or not out.flags.writeable:
            raise ValueError(
                "the native kernel needs two non-empty C-contiguous 2-D "
                "arrays of one shape and a dtype pair in PAIRS, out "
                f"writable; got {a.dtype}{a.shape} -> "
                f"{out.dtype}{out.shape}")
        if out is not a and np.may_share_memory(a, out):
            raise ValueError("out overlaps the input without being it")
        if fn(a.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1]):
            raise MemoryError("the native SAT kernel could not allocate its "
                              f"{a.shape[1]}-element column buffer")
        return out


def library_name(source: bytes) -> str:
    """File name of the shared object built from ``source`` with
    :data:`CFLAGS`."""
    key = zlib.crc32(" ".join(CFLAGS).encode(), zlib.crc32(source))
    return f"repro-native-{key:08x}.so"


def cache_dirs() -> list[str]:
    """Candidate cache directories, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    dirs = [os.path.join(base, "repro")]
    if hasattr(os, "getuid"):
        import tempfile
        dirs.append(os.path.join(tempfile.gettempdir(),
                                 f"repro-{os.getuid()}"))
    return dirs


def _private(directory: str) -> bool:
    """Whether ``directory`` is owned by this user and not writable by
    others (a shared object loaded from it runs as this user)."""
    st = os.stat(directory)
    owner = st.st_uid == os.getuid() if hasattr(os, "getuid") else True
    return owner and not st.st_mode & 0o022


def _compiler() -> str | None:
    import shutil
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = shutil.which(name) if name else None
        if path:
            return path
    return None


def _compile(cc: str, source: bytes, target: str) -> None:
    """Compile ``source`` to ``target``, atomically."""
    import subprocess
    tmp = f"{target}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        proc = subprocess.run([cc, *CFLAGS, "-o", tmp, "-x", "c", "-"],
                              input=source, capture_output=True, timeout=300)
        if proc.returncode:
            raise NativeUnavailable(
                f"{cc} failed: {proc.stderr.decode(errors='replace')[:500]}")
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"{cc} could not build {target}: {exc}") \
            from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source_path: str = SOURCE) -> NativeKernel:
    """Load the kernel built from ``source_path``, building it first when no
    cache directory holds it.  Raises :class:`NativeUnavailable`."""
    try:
        with open(source_path, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise NativeUnavailable(f"cannot read {source_path}: {exc}") from exc
    name = library_name(source)
    dirs = cache_dirs()
    for directory in dirs:
        path = os.path.join(directory, name)
        if os.path.isfile(path) and _private(directory):
            try:
                return NativeKernel(path)
            except OSError:
                break   # unloadable (e.g. built elsewhere): rebuild below
    cc = _compiler()
    if cc is None:
        raise NativeUnavailable("no C compiler found (set CC, or install cc)")
    errors = []
    for directory in dirs:
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            if not _private(directory):
                raise NativeUnavailable("writable by other users")
            path = os.path.join(directory, name)
            _compile(cc, source, path)
            return NativeKernel(path)
        except (OSError, NativeUnavailable) as exc:
            errors.append(f"{directory}: {exc}")
    raise NativeUnavailable("; ".join(errors))


_kernel: NativeKernel | None = None
_failure: NativeUnavailable | None = None
_lock = threading.Lock()


def kernel() -> NativeKernel | None:
    """The process-wide kernel, loaded on first use.

    Returns ``None`` when it cannot be built; the first such call warns
    once (``RuntimeWarning``) and later calls do not retry.
    """
    global _kernel, _failure
    if _kernel is None and _failure is None:
        with _lock:
            if _kernel is None and _failure is None:
                try:
                    _kernel = load()
                except NativeUnavailable as exc:
                    _failure = exc
                    warnings.warn(
                        f"the native SAT kernel is unavailable ({exc}); "
                        "engine='parallel' and incremental delta repair use "
                        "NumPy's double cumsum instead (same results, "
                        "several times slower)",
                        RuntimeWarning, stacklevel=3)
    return _kernel


def sat_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the SAT of the 2-D ``a`` into ``out`` (same shape, accumulator
    dtype) and return ``out``; ``out`` may be ``a`` itself.

    One kernel pass when ``(a.dtype, out.dtype)`` is in :data:`PAIRS`, both
    are C-contiguous and non-empty, and the kernel loads; otherwise NumPy's
    double cumsum in ``out``'s dtype, which gives the same bits.
    """
    if (a.dtype, out.dtype) in PAIRS and a.size and a.flags.c_contiguous \
            and out.flags.c_contiguous:
        k = kernel()
        if k is not None:
            return k.sat(a, out)
    np.cumsum(a, axis=0, dtype=out.dtype, out=out)
    return np.cumsum(out, axis=1, out=out)
