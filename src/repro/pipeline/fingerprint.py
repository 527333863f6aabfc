"""Content-addressed fingerprints for pipeline cells.

A cell's fingerprint is a SHA-256 over a canonical token stream of its
function, parameters, and (already-fingerprinted) dependencies — a
Merkle DAG. Two cells with equal fingerprints compute the same value, so
the planner merges them and the on-disk cache can be shared across
figures, scales, and sessions.

Only deterministic, *value-like* inputs are accepted: primitives,
tuples/lists/dicts of them, numpy arrays, dataclasses, reissue policies,
distributions, and module-level callables referenced by qualified name.
Anything else (open files, generators, stateful RNGs) raises — a cell
whose inputs cannot be fingerprinted cannot be safely cached or deduped.

Cost: a value of an exact builtin type (``None``, ``bool``, ``int``,
``float``, ``str``, ``tuple``, ``list``, ``dict``) or a plain function is
emitted through one dict lookup on its type; everything else (subclasses,
numpy scalars, arrays, dataclasses, parameter objects) takes the generic
``isinstance`` chain. Token streams of values that cannot change under
them are memoised for the life of the process:

* module-level functions, keyed on the function and checked against its
  current ``__code__``;
* frozen dataclass instances (``__fingerprint__`` holders included)
  whose fields are all primitives, functions, or tuples of them —
  ``SystemRef`` and ``Scale``. These are keyed by object *identity* and
  held by weak reference, never by equality: ``SystemRef(n=1) ==
  SystemRef(n=1.0)``, yet the two stream ``I:1`` and ``F:1.0``.

The memo lives in this module only, so nothing of it is pickled with the
values it describes. The memo changes no token: every digest is the one
the uncached chain produces.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import weakref
from collections.abc import Mapping
from types import FunctionType
from typing import Any

import numpy as np

def _version_salt() -> str:
    """Package version folded into every fingerprint.

    Cell fingerprints cover the cell function's own bytecode but not the
    protocol code it calls (optimizers, the simulation engine); salting
    with the package version retires on-disk caches across releases even
    when nobody remembers to bump :data:`FINGERPRINT_VERSION`.
    """
    try:
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - import cycles during bootstrap
        return "?"


#: Bump to invalidate every existing cache entry (serialization or
#: protocol-semantics change between releases).
FINGERPRINT_VERSION = f"repro-pipeline-v1/{_version_salt()}"

#: Module-level function -> (its ``__code__`` when emitted, tokens).
_FUNCTIONS: dict[FunctionType, tuple[Any, list[str]]] = {}
#: ``id(value)`` -> (weak reference to value, tokens, ((function, code), ...))
#: for frozen dataclass instances; the guards re-check function fields.
_FROZEN: dict[int, tuple] = {}
#: Types a memoised dataclass field may hold besides tuples and functions.
_SCALARS = frozenset({type(None), bool, int, float, str, bytes})


def _emit(out: list[str], v: Any) -> None:
    emit = _EXACT.get(type(v))
    if emit is None:
        _emit_other(out, v)
    else:
        emit(out, v)


def _emit_none(out: list[str], v: None) -> None:
    out.append("N:None")


def _emit_bool(out: list[str], v: bool) -> None:
    out.append("B:True" if v else "B:False")


def _emit_int(out: list[str], v: int) -> None:
    out.append(f"I:{v}")


def _emit_float(out: list[str], v: float) -> None:
    out.append(f"F:{v!r}")


def _emit_str(out: list[str], v: str) -> None:
    out.append(f"S:{len(v)}:{v}")


def _emit_sequence(out: list[str], v) -> None:
    out.append(f"T{len(v)}(")
    for item in v:
        _emit(out, item)
    out.append(")")


def _emit_mapping(out: list[str], v: Mapping) -> None:
    """Keys are emitted as values, so ``1`` and ``"1"`` stay apart.

    Entries sort by ``str(key)`` for ``str`` keys and by the key's token
    otherwise, ties broken by the token: a ``str``-keyed mapping streams
    exactly as it always has, and no order depends on insertion.
    """
    out.append(f"M{len(v)}(")
    keys = list(v)
    if all(type(k) is str for k in keys):
        for k in sorted(keys):
            out.append(f"S:{len(k)}:{k}")
            _emit(out, v[k])
    else:
        entries = []
        for k in keys:
            tokens: list[str] = []
            _emit(tokens, k)
            token = "\x1f".join(tokens)
            order = str(k) if isinstance(k, str) else token
            entries.append((order, token, tokens, k))
        entries.sort(key=lambda e: e[:2])
        for _, _, tokens, k in entries:
            out.extend(tokens)
            _emit(out, v[k])
    out.append(")")


def _emit_function(out: list[str], v: FunctionType) -> None:
    hit = _FUNCTIONS.get(v)
    if hit is None or hit[0] is not v.__code__:
        if hasattr(v, "__fingerprint__"):
            _emit_other(out, v)
            return
        tokens: list[str] = []
        _emit_callable(tokens, v)
        hit = _FUNCTIONS[v] = (v.__code__, tokens)
    out.extend(hit[1])


_EXACT = {
    type(None): _emit_none,
    bool: _emit_bool,
    int: _emit_int,
    float: _emit_float,
    str: _emit_str,
    tuple: _emit_sequence,
    list: _emit_sequence,
    dict: _emit_mapping,
    FunctionType: _emit_function,
}


def _emit_other(out: list[str], v: Any) -> None:
    """The generic chain: subclasses, numpy values, objects."""
    hit = _FROZEN.get(id(v))
    if (
        hit is not None
        and hit[0]() is v
        and all(fn.__code__ is code for fn, code in hit[2])
    ):
        out.extend(hit[1])
    elif isinstance(v, np.bool_):
        out.append(f"B:{bool(v)}")
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
        _emit_sequence(out, v)
    elif isinstance(v, Mapping):
        _emit_mapping(out, v)
    elif hasattr(v, "__fingerprint__"):
        tokens = ["X("]
        _emit(tokens, v.__fingerprint__())
        tokens.append(")")
        _remember(v, tokens)
        out.extend(tokens)
    elif dataclasses.is_dataclass(v) and not isinstance(v, type):
        tokens = [f"D:{_qualname(type(v))}("]
        for f in dataclasses.fields(v):
            _emit(tokens, f.name)
            _emit(tokens, getattr(v, f.name))
        tokens.append(")")
        _remember(v, tokens)
        out.extend(tokens)
    elif callable(v) and hasattr(v, "__qualname__"):
        _emit_callable(out, v)
    elif _is_param_object(v):
        # Parameter-holder objects (reissue policies, distributions,
        # systems built from primitives): class + public attributes.
        out.append(f"O:{_qualname(type(v))}(")
        for k in sorted(vars(v)):
            _emit(out, k)
            _emit(out, vars(v)[k])
        out.append(")")
    else:
        raise TypeError(
            f"cannot fingerprint value of type {type(v).__qualname__}: {v!r}"
        )


def _emit_callable(out: list[str], v) -> None:
    qn = _qualname(v)
    if "<locals>" in qn or v.__name__ == "<lambda>":
        raise TypeError(f"cannot fingerprint non-module-level callable {qn!r}")
    out.append(f"C:{qn}")
    # Also hash the function's own bytecode and constants, so editing a
    # cell function retires its cached results instead of silently
    # replaying values computed by the old implementation. (Helpers it
    # *calls* are not covered — bump FINGERPRINT_VERSION when protocol
    # code beneath the cell functions changes meaning.)
    code = getattr(v, "__code__", None)
    if code is not None:
        consts = tuple(c for c in code.co_consts if not isinstance(c, type(code)))
        out.append(
            "c:"
            + hashlib.sha256(
                repr((consts, code.co_names)).encode() + code.co_code
            ).hexdigest()
        )


def _remember(v: Any, tokens: list[str]) -> None:
    """Memoise ``v``'s tokens if ``v`` is a frozen dataclass instance
    whose fields cannot change under them."""
    params = getattr(type(v), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return
    guards: list[tuple] = []
    if not all(
        _immutable(getattr(v, f.name), guards) for f in dataclasses.fields(v)
    ):
        return
    key = id(v)
    try:
        ref = weakref.ref(v, functools.partial(_forget, key))
    except TypeError:  # __slots__ without __weakref__
        return
    _FROZEN[key] = (ref, tokens, tuple(guards))


def _forget(key: int, ref: weakref.ref) -> None:
    entry = _FROZEN.get(key)
    if entry is not None and entry[0] is ref:
        del _FROZEN[key]


def _immutable(x: Any, guards: list[tuple]) -> bool:
    cls = type(x)
    if cls in _SCALARS:
        return True
    if cls is tuple:
        return all(_immutable(item, guards) for item in x)
    if cls is FunctionType:
        guards.append((x, x.__code__))
        return True
    return False


def _qualname(obj) -> str:
    return f"{getattr(obj, '__module__', '?')}.{obj.__qualname__}"


def _is_param_object(v: Any) -> bool:
    """Objects that are pure parameter holders: every attribute must be
    fingerprintable itself (enforced recursively by ``_emit``); RNGs and
    other stateful members are rejected there."""
    if isinstance(v, np.random.Generator):
        return False
    try:
        vars(v)
    except TypeError:
        return False
    return True


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical token stream."""
    out: list[str] = [FINGERPRINT_VERSION]
    _emit(out, value)
    return hashlib.sha256("\x1f".join(out).encode()).hexdigest()
