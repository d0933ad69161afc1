"""Persistent on-disk cache for fixed-base precomputation tables.

Every worker process the fleet spawns used to rebuild the same
:class:`~repro.crypto.dsa.FixedBaseTable` columns from scratch — the
generator table plus one table per warm host key, a few hundred modular
multiplications each, repaid per process, per run, forever.  The
columns are pure functions of ``(base, modulus, window, num_windows)``,
so a host-level cache pays the build exactly once and every subsequent
process (worker pools, the verification service, benchmark runs) loads
the integers back in microseconds.

Design constraints, in order:

* **Correctness over availability.**  A cache entry is trusted only if
  its payload hashes to the digest in its header; any mismatch, short
  read, bad magic, or unparsable header makes :meth:`TableCache.load`
  return ``None`` (and best-effort delete the bad file) so the caller
  silently recomputes.  A corrupt cache can cost time, never wrong
  arithmetic.
* **Concurrent writers are safe.**  Entries are written to a uniquely
  named temporary file in the cache directory and published with
  :func:`os.replace`, so readers observe either the old complete entry
  or the new complete entry, never a torn write.  Racing writers both
  produce identical bytes (the entry is deterministic), so last-writer-
  wins is harmless.
* **No pickle.**  Entries are a fixed-width big-endian integer array
  behind a small struct header.  Loading a cache file can allocate
  integers and nothing else — a poisoned cache directory cannot execute
  code.

The file name doubles as the key: a SHA-256 over the base, modulus,
window geometry, and backend id (the ISSUE keys entries per backend so
an engine with a different native layout can never be fed another
engine's file; today all backends share the plain-int export format,
which just means a fleet mixing backends stores each table twice).

Caching is **disabled by default** for library users — importing
:mod:`repro.crypto` must not touch the filesystem.  Entry points opt
in: worker-pool warmup and ``python -m repro.service`` call
:func:`enable_table_cache`; everyone else can opt in with
the ``REPRO_TABLE_CACHE`` environment variable (``0``/``off`` disables,
``1``/``on`` selects the default ``~/.cache/repro/tables``, anything
else is used as a directory path).
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "TableCache",
    "TABLE_CACHE_ENV_VAR",
    "default_cache_dir",
    "resolve_cache_setting",
    "get_table_cache",
    "set_table_cache",
    "enable_table_cache",
    "table_cache_info",
]

#: Environment variable controlling the process-wide cache:
#: ``0``/``off``/``false``/``no`` disable it, ``1``/``on``/``true``/
#: ``yes``/``default`` select :func:`default_cache_dir`, any other
#: value is taken as a directory path.
TABLE_CACHE_ENV_VAR = "REPRO_TABLE_CACHE"

_MAGIC = b"REPRO-TBL1\n"
#: window, bytes per value, number of columns, values per column.
_HEADER = struct.Struct(">HHII")
_DIGEST_BYTES = 32

_FALSEY = frozenset({"0", "off", "false", "no", "disabled"})
_TRUTHY = frozenset({"1", "on", "true", "yes", "default"})


def default_cache_dir() -> str:
    """The conventional per-user cache directory for table entries."""
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "tables"
    )


def resolve_cache_setting(value: Optional[str]) -> Optional[str]:
    """Map an env-var style setting to a cache directory (or ``None``)."""
    if value is None:
        return None
    stripped = value.strip()
    lowered = stripped.lower()
    if not stripped or lowered in _FALSEY:
        return None
    if lowered in _TRUTHY:
        return default_cache_dir()
    return stripped


class TableCache:
    """A directory of precomputed fixed-base tables, one file per key."""

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self.directory = os.fspath(directory)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._errors = 0

    # -- keying -----------------------------------------------------------

    @staticmethod
    def entry_key(base: int, modulus: int, window: int, num_windows: int,
                  backend: str) -> str:
        """Content key for one table: parameters digest + backend id."""
        material = ("tbl1|%x|%x|%d|%d|%s" % (
            base, modulus, window, num_windows, backend,
        )).encode("ascii")
        return hashlib.sha256(material).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".tbl")

    # -- load / store -----------------------------------------------------

    def load(self, key: str) -> Optional[List[List[int]]]:
        """Return the cached columns for ``key``, or ``None``.

        Every failure mode — missing file, truncation, bad magic,
        header/payload mismatch, digest mismatch — counts as a miss
        (plus an error for anything other than a clean absence) and
        returns ``None``; corrupt files are deleted best-effort so the
        recomputed entry heals the cache.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            with self._lock:
                self._misses += 1
            return None
        columns = self._decode(blob)
        if columns is None:
            with self._lock:
                self._misses += 1
                self._errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        with self._lock:
            self._hits += 1
        return columns

    def store(self, key: str, columns: List[List[int]]) -> bool:
        """Atomically publish ``columns`` under ``key``.

        Returns ``True`` on success; any filesystem failure is recorded
        and swallowed — a read-only or full cache directory degrades to
        recomputation, never to an exception on the hot path.
        """
        blob = self._encode(columns)
        path = self._path(key)
        # Unique temp name per writer: concurrent stores never collide,
        # and os.replace publishes each complete file atomically.
        tmp = "%s.tmp.%d.%d.%s" % (
            path, os.getpid(), threading.get_ident(),
            os.urandom(4).hex(),
        )
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self._errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        with self._lock:
            self._stores += 1
        return True

    # -- wire format ------------------------------------------------------

    @staticmethod
    def _encode(columns: List[List[int]]) -> bytes:
        num_columns = len(columns)
        column_size = len(columns[0]) if columns else 0
        width = 1
        for column in columns:
            for value in column:
                bits = value.bit_length()
                if bits > width * 8:
                    width = (bits + 7) // 8
        payload = bytearray()
        for column in columns:
            for value in column:
                payload += value.to_bytes(width, "big")
        header = _HEADER.pack(0, width, num_columns, column_size)
        digest = hashlib.sha256(bytes(payload)).digest()
        return _MAGIC + header + digest + bytes(payload)

    @staticmethod
    def _decode(blob: bytes) -> Optional[List[List[int]]]:
        prefix = len(_MAGIC) + _HEADER.size + _DIGEST_BYTES
        if len(blob) < prefix or not blob.startswith(_MAGIC):
            return None
        header = blob[len(_MAGIC):len(_MAGIC) + _HEADER.size]
        _reserved, width, num_columns, column_size = _HEADER.unpack(header)
        digest = blob[len(_MAGIC) + _HEADER.size:prefix]
        payload = blob[prefix:]
        if width < 1 or len(payload) != num_columns * column_size * width:
            return None
        if hashlib.sha256(payload).digest() != digest:
            return None
        columns: List[List[int]] = []
        offset = 0
        for _ in range(num_columns):
            column = []
            for _ in range(column_size):
                column.append(
                    int.from_bytes(payload[offset:offset + width], "big")
                )
                offset += width
            columns.append(column)
        return columns

    # -- reporting --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "path": self.directory,
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "errors": self._errors,
            }


# ---------------------------------------------------------------------------
# process-wide cache selection
# ---------------------------------------------------------------------------

_lock = threading.Lock()
_cache: Optional[TableCache] = None
_configured = False


def get_table_cache() -> Optional[TableCache]:
    """The process-wide cache, or ``None`` when caching is disabled.

    Resolved once from ``REPRO_TABLE_CACHE`` on first use; an unset
    variable leaves caching off (libraries must not write to the user's
    filesystem uninvited).
    """
    global _cache, _configured
    if not _configured:
        with _lock:
            if not _configured:
                directory = resolve_cache_setting(
                    os.environ.get(TABLE_CACHE_ENV_VAR)
                )
                _cache = TableCache(directory) if directory else None
                _configured = True
    return _cache


def set_table_cache(
    setting: Union[TableCache, str, os.PathLike, None]
) -> Optional[TableCache]:
    """Pin the process-wide cache explicitly; returns the new value.

    ``None`` (or ``False``) disables caching; a :class:`TableCache`
    instance is used as-is; a string/path selects that directory (env
    style values like ``"off"`` are honoured too).
    """
    global _cache, _configured
    with _lock:
        if setting is None or setting is False:
            _cache = None
        elif isinstance(setting, TableCache):
            _cache = setting
        else:
            directory = resolve_cache_setting(os.fspath(setting))
            _cache = TableCache(directory) if directory else None
        _configured = True
        return _cache


def enable_table_cache(
    directory: Union[TableCache, str, os.PathLike, None] = None
) -> Optional[TableCache]:
    """Turn persistent caching on, the way entry points should.

    Precedence: an explicit ``directory`` argument wins; otherwise a set
    ``REPRO_TABLE_CACHE`` is honoured (including an explicit *disable*);
    otherwise the default per-user directory is used.  Returns the
    active cache (``None`` when the environment disabled it).
    """
    if directory is not None:
        return set_table_cache(directory)
    env = os.environ.get(TABLE_CACHE_ENV_VAR)
    if env is not None:
        return set_table_cache(resolve_cache_setting(env))
    return set_table_cache(default_cache_dir())


def table_cache_info() -> Dict[str, Any]:
    """Report-friendly snapshot of the process-wide cache state."""
    cache = get_table_cache()
    if cache is None:
        return {"enabled": False, "path": None,
                "hits": 0, "misses": 0, "stores": 0, "errors": 0}
    info: Dict[str, Any] = {"enabled": True}
    info.update(cache.stats())
    return info
