"""Reference implementation of the pipeline fingerprint (test oracle).

This is the straightforward ``isinstance`` chain that
``repro.pipeline.fingerprint`` replaced with an exact-type dispatch table
and an identity memo. It is kept here, and only here, so the tests can
assert that the production digests are byte-for-byte the ones this
chain produces: on-disk caches written before the rewrite keep hitting.

One known difference is deliberate: this chain emits dict keys as
``str(k)``, so ``{1: "a"}`` and ``{"1": "a"}`` collide. Production emits
each key as a value. The two agree on every dict whose keys are all
``str``, which is the only kind the property tests feed both.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Mapping

import numpy as np

from repro.pipeline.fingerprint import FINGERPRINT_VERSION


def _emit(out: list[str], v: Any) -> None:
    if v is None or isinstance(v, (bool, np.bool_)):
        out.append(f"N:{v}" if v is None else f"B:{bool(v)}")
    elif isinstance(v, (int, np.integer)):
        out.append(f"I:{int(v)}")
    elif isinstance(v, (float, np.floating)):
        out.append(f"F:{float(v)!r}")
    elif isinstance(v, str):
        out.append(f"S:{len(v)}:{v}")
    elif isinstance(v, bytes):
        out.append(f"Y:{hashlib.sha256(v).hexdigest()}")
    elif isinstance(v, np.ndarray):
        arr = np.ascontiguousarray(v)
        out.append(f"A:{arr.dtype.str}:{arr.shape}:")
        out.append(hashlib.sha256(arr.tobytes()).hexdigest())
    elif isinstance(v, (tuple, list)):
        out.append(f"T{len(v)}(")
        for item in v:
            _emit(out, item)
        out.append(")")
    elif isinstance(v, Mapping):
        out.append(f"M{len(v)}(")
        for k in sorted(v, key=str):
            _emit(out, str(k))
            _emit(out, v[k])
        out.append(")")
    elif hasattr(v, "__fingerprint__"):
        out.append("X(")
        _emit(out, v.__fingerprint__())
        out.append(")")
    elif dataclasses.is_dataclass(v) and not isinstance(v, type):
        out.append(f"D:{_qualname(type(v))}(")
        for f in dataclasses.fields(v):
            _emit(out, f.name)
            _emit(out, getattr(v, f.name))
        out.append(")")
    elif callable(v) and hasattr(v, "__qualname__"):
        qn = _qualname(v)
        if "<locals>" in qn or v.__name__ == "<lambda>":
            raise TypeError(
                f"cannot fingerprint non-module-level callable {qn!r}"
            )
        out.append(f"C:{qn}")
        code = getattr(v, "__code__", None)
        if code is not None:
            consts = tuple(
                c for c in code.co_consts if not isinstance(c, type(code))
            )
            out.append(
                "c:"
                + hashlib.sha256(
                    repr((consts, code.co_names)).encode() + code.co_code
                ).hexdigest()
            )
    elif _is_param_object(v):
        out.append(f"O:{_qualname(type(v))}(")
        for k in sorted(vars(v)):
            _emit(out, k)
            _emit(out, vars(v)[k])
        out.append(")")
    else:
        raise TypeError(
            f"cannot fingerprint value of type {type(v).__qualname__}: {v!r}"
        )


def _qualname(obj) -> str:
    return f"{getattr(obj, '__module__', '?')}.{obj.__qualname__}"


def _is_param_object(v: Any) -> bool:
    if isinstance(v, np.random.Generator):
        return False
    try:
        vars(v)
    except TypeError:
        return False
    return True


def reference_fingerprint(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical token stream."""
    out: list[str] = [FINGERPRINT_VERSION]
    _emit(out, value)
    return hashlib.sha256("\x1f".join(out).encode()).hexdigest()
