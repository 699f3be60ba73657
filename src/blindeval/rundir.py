"""File-based run directory: the unit every command operates on.

No database; a run is a diffable tree of JSON/CSV/text files.  The
manifest pins a schema version (commands refuse to mix versions) and the
global seed all randomness flows from.  A lock file serializes CLI
invocations against the same run.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import RunDirectoryError
from .store import from_doc, read_json, to_doc, write_json

SCHEMA_VERSION = 1
SUBDIRS = ("cases", "personas", "templates", "blinding", "sessions",
           "transcripts", "records", "report")
MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".lock"

#: JSON keys whose values vary between otherwise identical runs.
VOLATILE_KEYS = frozenset({"created_at", "timestamp", "latency_s"})


@dataclass(frozen=True)
class Manifest:
    schema_version: int
    global_seed: int
    created_at: str


@dataclass
class RunDirectory:
    root: Path
    global_seed: int

    @classmethod
    def init(cls, root: Path, seed: int) -> "RunDirectory":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            raise RunDirectoryError(f"{root} is already initialized")
        root.mkdir(parents=True, exist_ok=True)
        for sub in SUBDIRS:
            (root / sub).mkdir(exist_ok=True)
        manifest = Manifest(SCHEMA_VERSION, seed, datetime.now(timezone.utc).isoformat())
        write_json(manifest_path, to_doc(manifest))
        return cls(root=root, global_seed=seed)

    @classmethod
    def open(cls, root: Path) -> "RunDirectory":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise RunDirectoryError(f"{root} is not an initialized run directory (no {MANIFEST_NAME})")
        manifest = from_doc(Manifest, read_json(manifest_path), manifest_path)
        if manifest.schema_version != SCHEMA_VERSION:
            raise RunDirectoryError(
                f"run directory schema version {manifest.schema_version} "
                f"does not match this build's {SCHEMA_VERSION}")
        return cls(root=root, global_seed=manifest.global_seed)

    def path(self, sub: str) -> Path:
        if sub not in SUBDIRS:
            raise RunDirectoryError(f"unknown run subdirectory {sub!r}")
        return self.root / sub

    @contextlib.contextmanager
    def lock(self):
        """One CLI invocation per run directory at a time.  A lock whose
        recorded PID is no longer running is stale and is taken over."""
        lock_path = self.root / LOCK_NAME
        if _holder_gone(lock_path):
            lock_path.unlink(missing_ok=True)  # stale: its process has exited
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RunDirectoryError(
                f"run directory is locked by another invocation ({lock_path}); "
                "remove the file if that process is gone") from None
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            with contextlib.suppress(FileNotFoundError):
                lock_path.unlink()


def _holder_gone(lock_path: Path) -> bool:
    """True when the lock file records the PID of a process that is not running."""
    try:
        os.kill(int(lock_path.read_text(encoding="ascii")), 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError):  # no lock, another user's process, or its PID not yet written
        pass
    return False


# --- comparison mode --------------------------------------------------------------

def _scrub(value):
    if isinstance(value, dict):
        return {k: ("<volatile>" if k in VOLATILE_KEYS else _scrub(v)) for k, v in value.items()}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def snapshot(root: Path) -> dict[str, str]:
    """Map of relative path -> normalized content for tree comparison.

    JSON files are re-serialized canonically with volatile keys
    (timestamps, latencies) replaced; other files compare byte-for-byte.
    """
    root = Path(root)
    out: dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.name == LOCK_NAME:
            continue
        rel = str(path.relative_to(root))
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            out[rel] = json.dumps(_scrub(doc), ensure_ascii=False, sort_keys=True)
        else:
            out[rel] = path.read_text(encoding="utf-8")
    return out


def trees_identical(a: Path, b: Path) -> tuple[bool, list[str]]:
    snap_a = snapshot(a)
    snap_b = snapshot(b)
    diffs = sorted(set(snap_a) ^ set(snap_b))
    diffs += sorted(k for k in set(snap_a) & set(snap_b) if snap_a[k] != snap_b[k])
    return (not diffs), diffs
