"""The package's one C library: built with ``cc``, cached, loaded by ctypes.

Two C sources go into one shared library:

* ``fastsim/_core.c`` — the ``compiled`` kernel tier, a
  statement-for-statement port of :func:`repro.fastsim._core.simulate_core`
  (called through :mod:`repro.fastsim._ccore`);
* ``core/_correlated.c`` — the §4.2 sweep loop of
  :func:`repro.core.correlated.compute_optimal_singler_correlated`.

The library is built once per machine, never per process and never at
import: the first call that needs it compiles both sources into
``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro/``) under a name
that carries a sha256 of the sources, the compiler path and the flags,
so an edited source or another compiler builds a new file and every
later process only loads it. A build writes into a unique temporary
directory beside it and ``os.replace``\\ s the file into place, so
processes that build at the same moment never load a partial file. The
cache is deliberately not under ``TMPDIR``, which a caller may point at
a directory it deletes at exit.

When the library cannot load (no ``cc`` on ``PATH``, a failed build, an
unwritable cache), the reason is kept for the rest of the process, so
the build is tried once per process for every user: the kernel's
automatic selection falls back to the ``numpy`` tier, the correlated
fitter to its Python loop, and an explicit ``compiled`` request raises
``RuntimeError`` with the reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_PACKAGE = Path(__file__).parent
SOURCES = (_PACKAGE / "fastsim" / "_core.c", _PACKAGE / "core" / "_correlated.c")
#: No -ffast-math and no -march: IEEE-754 evaluation order is kept, and
#: -ffp-contract=off forbids fused multiply-adds, so the C doubles are
#: bit for bit the ones the Python twins compute.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_ptr, _i64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
#: name -> (restype, argtypes) of every function the library exports.
PROTOTYPES = {
    "simulate_core": (
        _i64,
        [_ptr, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr, _i64, _ptr]
        + [_i64, _i64, _i64, _f64]
        + [_ptr] * 10,
    ),
    "correlated_sweep": (
        None,
        [_ptr, _i64, _ptr, _ptr, _i64, _f64, _f64, _i64, _ptr, _ptr],
    ),
}

_library = None
_unavailable: str | None = None


def find_compiler() -> str | None:
    """Path of the system C compiler, or ``None`` when ``cc`` is not on PATH."""
    return shutil.which("cc")


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def library_path(compiler: str) -> Path:
    """Where the library built from these sources by ``compiler`` lives."""
    digest = hashlib.sha256()
    parts = [source.read_bytes() for source in SOURCES]
    for part in (*parts, compiler.encode(), " ".join(CFLAGS).encode()):
        digest.update(part)
        digest.update(b"\0")
    return cache_dir() / f"repro_c-{digest.hexdigest()[:20]}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent)
    try:
        built = os.path.join(workdir, target.name)
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", built, *map(str, SOURCES)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"`{compiler}` exited with status {proc.returncode} building "
                f"{' + '.join(s.name for s in SOURCES)}: "
                f"{proc.stderr.strip()[-400:]}"
            )
        os.replace(built, target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load() -> ctypes.CDLL:
    """The library, its functions typed per :data:`PROTOTYPES`, built on
    first use.

    Raises ``RuntimeError`` naming the reason when it cannot load; a
    failure is remembered, so the build is tried once per process.
    """
    global _library, _unavailable
    if _library is not None:
        return _library
    if _unavailable is None:
        try:
            compiler = find_compiler()
            if compiler is None:
                raise RuntimeError("no C compiler: `cc` is not on PATH")
            target = library_path(compiler)
            if not target.exists():
                _build(compiler, target)
            library = ctypes.CDLL(str(target))
            for name, (restype, argtypes) in PROTOTYPES.items():
                function = getattr(library, name)
                function.restype = restype
                function.argtypes = argtypes
        except (OSError, AttributeError, RuntimeError) as exc:
            _unavailable = f"the repro C library is unavailable ({exc})"
        else:
            _library = library
            return library
    raise RuntimeError(_unavailable)


def available() -> bool:
    """Whether the library loads, building it if needed."""
    try:
        load()
    except RuntimeError:
        return False
    return True


def selectable() -> bool:
    """Whether the library is expected to load, without building it: it
    is loaded, or a compiler is found and no build has failed in this
    process."""
    if _library is not None:
        return True
    return _unavailable is None and find_compiler() is not None
