"""Persistent content-addressed cache for simulation results.

The harness memoizes two kinds of objects on disk:

- ``result`` — a whole :class:`repro.harness.runner.WorkloadResult`
  (per-architecture ``ArchStats``), keyed by everything that can change
  it: the kernel *text* of every launch (via ``isa/text.kernel_to_text``,
  so any change to the builders or the transform invalidates), the
  launch geometry and bound arguments, the full ``GPUConfig``, the
  workload identity (abbr / scale / params — the input-generator seed is
  a pure function of the abbr), the architecture list, the R2D2 kwargs,
  and the verify flag;
- ``trace`` — the functional :class:`KernelTrace` list of a workload,
  keyed the same way minus the architecture list and the verify flag
  (the R2D2 kwargs stay: the traces carry the verdicts of the R2D2
  transform's operand witness).  Only
  ``verify=False`` runs write or read it: a verified run needs the
  device's output state, so it always executes, and the harness's
  figure runs (all verified) store only ``result`` entries.

Layout: ``<root>/v<SCHEMA_VERSION>/<namespace>/<kk>/<key>.pkl`` where
``kk`` is the first two hex digits of the sha256 key.  ``root`` is
``$R2D2_CACHE_DIR`` or ``~/.cache/repro``.  Bumping ``SCHEMA_VERSION``
orphans every old entry (``cache clear`` removes them).  Writes are
atomic (``os.replace``), so concurrent ``--jobs`` workers can share one
cache directory.  A size cap (``R2D2_CACHE_MAX_MB``, default 512) is
enforced after each write by evicting least-recently-*used* entries
(reads touch mtimes).

The cache is **off by default** so correctness tests always recompute;
it turns on via an explicit ``cache=`` argument, the ``R2D2_CACHE`` env
var, or the CLI (which enables it unless ``--no-cache`` is given).
Under ``R2D2_VERIFY=1`` it is never on (:func:`resolve_cache`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import re
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, List, Optional, Sequence

from .. import obs
from ..sim.config import verify_enabled

#: Bump whenever the pickled payloads or the key recipe change shape.
SCHEMA_VERSION = 6

_DEFAULT_MAX_MB = 512.0

#: Entries younger than this many seconds are exempt from eviction, so
#: concurrent ``--jobs`` workers sharing one cache directory cannot
#: delete each other's just-written results while the writer is still
#: about to read them back.
_DEFAULT_EVICT_GRACE_S = 60.0


def default_cache_dir() -> Path:
    env = os.environ.get("R2D2_CACHE_DIR", "").strip()
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


# ----------------------------------------------------------------------
# Canonical hashing
# ----------------------------------------------------------------------
class UnhashableKeyPart(TypeError):
    """A key component has no stable canonical form; callers skip
    caching rather than risk an unstable or colliding key."""


def _canonical(obj: Any, out: List[str]) -> None:
    """Append a deterministic textual form of ``obj`` to ``out``.

    Deliberately *not* ``repr``-based for containers: the form tags
    every type, so ``(1,)`` / ``[1]`` / ``{1}`` cannot collide, and any
    object whose identity would leak into the text (default ``repr``)
    is rejected instead of silently destabilizing the key.
    """
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(f"{type(obj).__name__}:{obj!r};")
    elif isinstance(obj, float):
        out.append(f"float:{obj!r};")
    elif isinstance(obj, bytes):
        out.append(f"bytes:{hashlib.sha256(obj).hexdigest()};")
    elif isinstance(obj, enum.Enum):
        out.append(f"enum:{type(obj).__name__}.{obj.name};")
    elif isinstance(obj, np.generic):
        out.append(f"np:{obj.dtype}:{obj.item()!r};")
    elif isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        out.append(f"nd:{obj.dtype}:{obj.shape}:{digest.hexdigest()};")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(f"dc:{type(obj).__name__}(")
        for f in dataclasses.fields(obj):
            out.append(f"{f.name}=")
            _canonical(getattr(obj, f.name), out)
        out.append(");")
    elif isinstance(obj, dict):
        out.append("dict(")
        for k in sorted(obj, key=repr):
            _canonical(k, out)
            out.append("=>")
            _canonical(obj[k], out)
        out.append(");")
    elif isinstance(obj, (list, tuple)):
        out.append(f"{type(obj).__name__}(")
        for item in obj:
            _canonical(item, out)
        out.append(");")
    elif isinstance(obj, (set, frozenset)):
        out.append("set(")
        inner: List[str] = []
        for item in obj:
            part: List[str] = []
            _canonical(item, part)
            inner.append("".join(part))
        out.extend(sorted(inner))
        out.append(");")
    else:
        raise UnhashableKeyPart(
            f"cannot build a stable cache key from {type(obj).__name__}"
        )


def digest(*parts: Any) -> str:
    """sha256 hex digest of the canonical form of ``parts`` (the schema
    version is always mixed in)."""
    out: List[str] = [f"schema:{SCHEMA_VERSION};"]
    for part in parts:
        _canonical(part, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


def _launch_parts(launches: Sequence) -> List[tuple]:
    from ..isa.text import kernel_to_text

    return [
        (kernel_to_text(spec.kernel), spec.grid, spec.block,
         tuple(spec.args))
        for spec in launches
    ]


def workload_result_key(
    workload,
    launches: Sequence,
    config,
    arch_names: Sequence[str],
    r2d2_kwargs: Optional[dict],
    verify: bool,
) -> str:
    """Key for a full ``WorkloadResult``.  Raises
    :class:`UnhashableKeyPart` when any component (e.g. an exotic R2D2
    kwarg) has no canonical form."""
    return digest(
        "result",
        workload.abbr,
        workload.scale,
        dict(workload.params),
        _launch_parts(launches),
        config,
        tuple(arch_names),
        dict(r2d2_kwargs or {}),
        bool(verify),
    )


def functional_trace_key(
    workload, launches: Sequence, config,
    r2d2_kwargs: Optional[dict] = None,
) -> str:
    """Key for the functional trace list.  ``r2d2_kwargs`` (``None``
    when the run has no R2D2) selects the transform whose operand
    witness verdicts the traces carry."""
    return digest(
        "trace",
        workload.abbr,
        workload.scale,
        dict(workload.params),
        _launch_parts(launches),
        config,
        None if r2d2_kwargs is None else dict(r2d2_kwargs),
    )


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class TraceCache:
    """Content-addressed pickle store with LRU size-cap eviction."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
        evict_grace_s: float = _DEFAULT_EVICT_GRACE_S,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version_dir = self.root / f"v{SCHEMA_VERSION}"
        if max_bytes is None:
            try:
                mb = float(
                    os.environ.get("R2D2_CACHE_MAX_MB", _DEFAULT_MAX_MB)
                )
            except ValueError:
                mb = _DEFAULT_MAX_MB
            max_bytes = int(mb * 1024 * 1024)
        self.max_bytes = max_bytes
        self.evict_grace_s = max(0.0, evict_grace_s)
        #: This-process hit/miss counters (reported by ``cache stats``).
        self.session_hits = 0
        self.session_misses = 0

    # -- paths ----------------------------------------------------------
    def _path(self, namespace: str, key: str) -> Path:
        return self.version_dir / namespace / key[:2] / f"{key}.pkl"

    def _entries(self) -> Iterator[Path]:
        if not self.version_dir.is_dir():
            return
        yield from self.version_dir.glob("*/??/*.pkl")

    # -- operations -----------------------------------------------------
    def contains(self, namespace: str, key: str) -> bool:
        """Whether an entry exists, without counting a hit or a miss
        (a following ``get`` can still miss if eviction wins a race)."""
        return self._path(namespace, key).is_file()

    def get(self, namespace: str, key: str) -> Optional[Any]:
        path = self._path(namespace, key)
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
            obj = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Missing, truncated, or written by an incompatible tree:
            # treat as a miss; a fresh put will overwrite it.
            self.session_misses += 1
            obs.inc("cache.miss", ns=namespace)
            obs.decision("cache", "miss", reason=namespace)
            return None
        try:
            os.utime(path)  # mark recently used for LRU eviction
        except OSError:
            pass
        self.session_hits += 1
        obs.inc("cache.hit", ns=namespace)
        obs.inc("cache.bytes_read", len(payload), ns=namespace)
        obs.decision("cache", "hit", reason=namespace)
        return obj

    def put(self, namespace: str, key: str, obj: Any) -> bool:
        path = self._path(namespace, key)
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        obs.inc("cache.put", ns=namespace)
        obs.inc("cache.bytes_written", len(payload), ns=namespace)
        self._evict()
        return True

    def _evict(self) -> None:
        entries = []
        total = 0
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        # Never evict the newest entry, even if it alone exceeds the
        # cap, nor anything inside the grace window: with several
        # workers sharing one directory, "globally newest" protects only
        # one writer's entry — a sibling's just-written result would be
        # deleted before the sibling (or the parent merge) reads it back.
        cutoff = time.time() - self.evict_grace_s
        for mtime, size, path in entries[:-1]:
            if total <= self.max_bytes:
                break
            if mtime > cutoff:
                continue
            try:
                path.unlink()
                total -= size
            except OSError:
                pass

    def stats(self) -> dict:
        namespaces: dict = {}
        total = 0
        count = 0
        for path in self._entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            ns = path.parent.parent.name
            bucket = namespaces.setdefault(ns, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            total += size
            count += 1
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": count,
            "total_bytes": total,
            "max_bytes": self.max_bytes,
            "namespaces": namespaces,
            "session_hits": self.session_hits,
            "session_misses": self.session_misses,
        }

    def clear(self) -> int:
        """Remove every entry (all schema versions). Returns the number
        of entries that existed under the current schema.

        Only ``v<N>`` schema directories are removed: ``R2D2_CACHE_DIR``
        may point at a shared directory (``~/.cache``, a project root),
        and blowing away ``self.root`` wholesale would take unrelated
        user files with it.
        """
        count = sum(1 for _ in self._entries())
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir() and re.fullmatch(r"v\d+", child.name):
                    shutil.rmtree(child, ignore_errors=True)
        return count


# ----------------------------------------------------------------------
# Resolution helpers
# ----------------------------------------------------------------------
def cache_from_env() -> Optional[TraceCache]:
    """The default-configured cache iff ``R2D2_CACHE`` enables it."""
    value = os.environ.get("R2D2_CACHE", "").strip().lower()
    if value in ("", "0", "off", "false", "no"):
        return None
    return TraceCache()


def resolve_cache(cache) -> Optional[TraceCache]:
    """Normalize a ``cache=`` argument: ``None`` defers to the
    environment, ``True``/``False`` force the default cache on/off, and
    a :class:`TraceCache` instance is used as-is.  Under
    ``R2D2_VERIFY=1`` there is no cache: a result or trace served from
    disk would skip the very engines the run is meant to verify."""
    if cache is False or verify_enabled():
        return None
    if cache is None:
        return cache_from_env()
    if cache is True:
        return TraceCache()
    return cache
