"""The ``compiled`` kernel tier: ``_core.c`` built with ``cc``, loaded by ctypes.

``_core.c`` is a statement-for-statement C port of
:func:`repro.fastsim._core.simulate_core`. It is built once per machine,
never per process and never at import: the first array-core call
compiles it into ``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro/``)
under a name that carries a sha256 of the C source, the compiler path
and the flags, so an edited source or another compiler builds a new
file and every later process only loads it. A build writes into a unique
temporary directory beside it and ``os.replace``\\ s the file into place,
so processes that build at the same moment never load a partial file.
The cache is deliberately not under ``TMPDIR``, which a caller may point
at a directory it deletes at exit.

When the tier cannot load (no ``cc`` on ``PATH``, a failed build, an
unwritable cache), the reason is kept for the rest of the process:
automatic selection falls back to the ``numpy`` tier without retrying,
and an explicit ``compiled`` request raises ``RuntimeError`` with it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_core.c")
#: No -ffast-math and no -march: IEEE-754 evaluation order is kept, and
#: -ffp-contract=off forbids fused multiply-adds, so the C doubles are
#: bit for bit the ones _core.py computes.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_function = None
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
    """Where the library built from this source by ``compiler`` lives."""
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), compiler.encode(), " ".join(CFLAGS).encode()):
        digest.update(part)
        digest.update(b"\0")
    return cache_dir() / f"fastsim_core-{digest.hexdigest()[:20]}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent)
    try:
        built = os.path.join(workdir, target.name)
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", built, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"`{compiler}` exited with status {proc.returncode} building "
                f"{SOURCE.name}: {proc.stderr.strip()[-400:]}"
            )
        os.replace(built, target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load():
    """The C ``simulate_core`` as a ctypes function, built on first use.

    Raises ``RuntimeError`` naming the reason when the tier cannot load;
    a failure is remembered, so the build is tried once per process.
    """
    global _function, _unavailable
    if _function is not None:
        return _function
    if _unavailable is None:
        try:
            compiler = find_compiler()
            if compiler is None:
                raise RuntimeError("no C compiler: `cc` is not on PATH")
            target = library_path(compiler)
            if not target.exists():
                _build(compiler, target)
            function = ctypes.CDLL(str(target)).simulate_core
        except (OSError, RuntimeError) as exc:
            _unavailable = f"the compiled fastsim tier is unavailable ({exc})"
        else:
            ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
            function.restype = i64
            function.argtypes = (
                [ptr, ptr, ptr, i64, ptr, i64, ptr, ptr, i64, ptr]
                + [i64, i64, i64, f64]
                + [ptr] * 10
            )
            _function = function
            return function
    raise RuntimeError(_unavailable)


def available() -> bool:
    """Whether the library loads, building it if needed."""
    try:
        load()
    except RuntimeError:
        return False
    return True


def selectable() -> bool:
    """Whether automatic selection picks this tier, without building it:
    the library is loaded, or a compiler is found and no build has failed
    in this process."""
    if _function is not None:
        return True
    return _unavailable is None and find_compiler() is not None


def simulate_core(
    ev_time,
    ev_check,
    ev_payload,
    xs,
    plan_qids,
    plan_y,
    sids,
    n_servers,
    mode,
    cancel_queued,
    cancel_overhead,
):
    """:func:`repro.fastsim._core.simulate_core`, run by the C library.

    Same arguments, same return tuple. Every array the C function reads
    or writes is allocated (or made contiguous in its dtype) here.
    """
    function = load()
    ev_time = np.ascontiguousarray(ev_time, dtype=np.float64)
    ev_check = np.ascontiguousarray(ev_check, dtype=np.bool_)
    ev_payload = np.ascontiguousarray(ev_payload, dtype=np.int64)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    plan_qids = np.ascontiguousarray(plan_qids, dtype=np.int64)
    plan_y = np.ascontiguousarray(plan_y, dtype=np.float64)
    sids = np.ascontiguousarray(sids, dtype=np.int64)
    n = xs.shape[0]
    n_plan = plan_qids.shape[0]
    cap = n + n_plan
    first_response = np.empty(n)
    primary_completion = np.empty(n)
    r_qid = np.empty(n_plan, np.int64)
    r_dispatch = np.empty(n_plan)
    r_complete = np.empty(n_plan)
    r_cancelled = np.empty(n_plan, np.bool_)
    totals = np.empty(2)
    iwork = np.empty(8 * n_servers + 3 * cap, np.int64)
    fwork = np.empty(2 * n_servers + cap)
    bwork = np.empty(n_servers + cap, np.uint8)
    n_re = function(
        ev_time.ctypes.data,
        ev_check.ctypes.data,
        ev_payload.ctypes.data,
        ev_time.shape[0],
        xs.ctypes.data,
        n,
        plan_qids.ctypes.data,
        plan_y.ctypes.data,
        n_plan,
        sids.ctypes.data,
        n_servers,
        mode,
        bool(cancel_queued),
        cancel_overhead,
        first_response.ctypes.data,
        primary_completion.ctypes.data,
        r_qid.ctypes.data,
        r_dispatch.ctypes.data,
        r_complete.ctypes.data,
        r_cancelled.ctypes.data,
        totals.ctypes.data,
        iwork.ctypes.data,
        fwork.ctypes.data,
        bwork.ctypes.data,
    )
    return (
        first_response,
        primary_completion,
        r_qid,
        r_dispatch,
        r_complete,
        r_cancelled,
        n_re,
        totals[0],
        totals[1],
    )
