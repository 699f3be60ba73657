"""File-based run directory: the unit every command operates on.

No database; a run is a diffable tree of JSON/CSV/text files.  The
manifest pins a schema version (commands refuse to mix versions) and the
global seed all randomness flows from.  A lock file serializes CLI
invocations against the same run.  Two trees are compared one normalized
file pair at a time (``trees_identical``); ``snapshot`` collects a whole
normalized tree for a digest.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import zip_longest
from pathlib import Path

from .errors import RunDirectoryError
from .store import from_doc, read_json, read_text_pieces, write_json

SCHEMA_VERSION = 3
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
        write_json(manifest_path, manifest)
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


def _file_names(root: str) -> set[str]:
    """Relative names of the files under ``root``, the lock file left out;
    a symlink to a directory is not followed.  A missing or unreadable
    directory raises RunDirectoryError naming it."""
    names: set[str] = set()
    prefixes = [""]
    while prefixes:
        prefix = prefixes.pop()
        directory = os.path.join(root, prefix)
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        prefixes.append(prefix + entry.name + os.sep)
                    elif entry.is_file() and entry.name != LOCK_NAME:
                        names.add(prefix + entry.name)
        except OSError as exc:
            raise RunDirectoryError(f"cannot read {directory}: {exc.strerror}") from None
    return names


def _normalized(path: str) -> Iterable[str]:
    """The normalized content of the file at ``path``, in pieces: a JSON
    file's canonical text with volatile keys replaced, as one piece; any
    other file's UTF-8 text, line ends untouched, read in bounded pieces."""
    if os.path.splitext(path)[1] == ".json":
        return [json.dumps(_scrub(read_json(path)), ensure_ascii=False, sort_keys=True)]
    return read_text_pieces(path)


def normalized_files(root: Path) -> Iterator[tuple[str, str]]:
    """Yield (relative path, normalized content) for every file of a tree,
    in order of path string, reading one file at a time.

    JSON files are re-serialized canonically with volatile keys
    (timestamps, latencies) replaced; other files compare byte-for-byte,
    decoded as UTF-8 with their line ends untouched.  A file unreadable
    this way raises RunDirectoryError naming it.
    """
    root = os.fspath(root)
    for name in sorted(_file_names(root)):
        yield name, "".join(_normalized(os.path.join(root, name)))


def snapshot(root: Path) -> dict[str, str]:
    """The whole normalized tree as one map of relative path -> content:
    the form a tree digest is taken of.  Comparing two trees does not
    need it; see trees_identical."""
    return dict(normalized_files(root))


def trees_identical(a: Path, b: Path) -> tuple[bool, list[str]]:
    """Compare two trees under normalized_files, one file pair at a time.

    Holds the two trees' sets of relative names and, for a pair of JSON
    files, both normalized texts; any other pair is read side by side in
    bounded pieces, never whole.  Every file of both trees is read to its
    end, so an unreadable file raises even where it is one-sided or where
    an earlier piece already differs.  Returns the sorted one-sided paths,
    then the sorted differing paths.
    """
    a, b = os.fspath(a), os.fspath(b)
    names_a, names_b = _file_names(a), _file_names(b)
    one_sided: list[str] = []
    differing: list[str] = []
    for name in sorted(names_a | names_b):
        same = True
        pieces_a = _normalized(os.path.join(a, name)) if name in names_a else ()
        pieces_b = _normalized(os.path.join(b, name)) if name in names_b else ()
        for piece_a, piece_b in zip_longest(pieces_a, pieces_b):
            same = same and piece_a == piece_b
        if name not in names_a or name not in names_b:
            one_sided.append(name)
        elif not same:
            differing.append(name)
    # the names are visited in sorted order, so each list is already sorted
    diffs = one_sided + differing
    return (not diffs), diffs
