"""The on-disk format of every file in a run directory.

One text writer (UTF-8 bytes with LF line ends on every platform), one CSV
writer, which streams a file in that same form, canonical JSON (two-space
indent, sorted keys and a trailing newline), one reader that turns any
unreadable file into a RunDirectoryError naming it, and one decoder from
JSON documents to dataclasses.  ``from_doc`` decodes by the dataclass's
type hints and rejects unknown and missing fields, so a typo never silently
drops data.  ``Documents`` names, saves and loads every ``<dir>/<id>.json``
file, so one place checks an id and that a file holds the document it names.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import functools
import json
import os
import re
import types
import typing
from collections.abc import Iterator
from json.encoder import encode_basestring as _quote  # the escaper json.dumps uses
from pathlib import Path

from .errors import RunDirectoryError, ValidationError


def dumps(obj) -> str:
    """Canonical JSON text of ``obj``, written in one pass.

    Dataclasses become objects of their fields, dict keys become ``str``
    (keys that collide as strings keep the last value), tuples become
    arrays and frozensets sorted arrays; objects sort their keys as
    strings.  The text is what ``json.dumps(doc, ensure_ascii=False,
    indent=2, sort_keys=True) + "\\n"`` gives for that converted ``doc``,
    and a value json cannot write raises json's TypeError.
    """
    out: list[str] = []
    _encode(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def write_text(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 bytes, encoded before the file is
    opened; the binary write keeps LF line ends on every platform."""
    data = text.encode("utf-8")
    with open(path, "wb") as file:
        file.write(data)
    return Path(path)


def write_json(path: Path, obj) -> Path:
    """Write ``dumps(obj)`` to ``path``."""
    return write_text(path, dumps(obj))


def write_csv(path: Path, header, rows) -> Path:
    """Write ``header`` then ``rows`` to ``path`` as CSV in UTF-8, each line
    ending in LF, streamed row by row rather than built whole first."""
    with open(path, "w", encoding="utf-8", newline="") as file:
        writer = csv.writer(file, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def read_json(path: Path):
    """Parsed document at ``path``; a missing, undecodable or malformed
    file (UnicodeDecodeError and JSONDecodeError are ValueErrors) raises
    RunDirectoryError, and so does a string holding a lone surrogate,
    which no later write or print could encode.  The bytes are decoded as
    UTF-8 explicitly: ``json.loads`` would also accept UTF-16 and UTF-32
    bytes."""
    try:
        with open(path, "rb", buffering=0) as file:  # one read, no buffer or isatty probe
            text = file.readall().decode("utf-8")
        doc = json.loads(text)
        if "\\u" in text:  # only a \u escape spells a surrogate (dumps escapes controls alone)
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from None


def read_text(path: Path) -> str:
    """Text of the UTF-8 file at ``path``, CRLF and CR line ends read as LF;
    a missing or undecodable file raises RunDirectoryError naming it."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None


def read_text_pieces(path: Path) -> Iterator[str]:
    """Text of the UTF-8 file at ``path`` with its line ends untouched, in
    pieces decoded from 64 KiB at a time; a missing or undecodable file
    raises RunDirectoryError naming it.  Equal files give equal pieces."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        with open(path, "rb") as file:
            while data := file.read(1 << 16):
                yield decoder.decode(data)
        yield decoder.decode(b"", final=True)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None


def _unreadable(path, exc: Exception) -> RunDirectoryError:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return RunDirectoryError(f"cannot read {path}: {reason}")


# --- keyed documents -------------------------------------------------------------

#: an id (of a case, role, model or call): no "_", which joins ids into a record
#: key, nor a slash, a backslash or a leading "." to leave or hide in a directory
ID_MAX = 64
_ID = re.compile(rf"[A-Za-z0-9][A-Za-z0-9.-]{{0,{ID_MAX - 1}}}")
_DOC_ID = re.compile(rf"{_ID.pattern}(?:_{_ID.pattern})*")


def check_id(value: str, grammar: re.Pattern = _ID) -> str:
    """``value`` if ``grammar`` matches all of it; else a ValidationError."""
    if grammar.fullmatch(value) is None:
        raise ValidationError(f"id {value!r} is not 1-{ID_MAX} ASCII letters, digits, '.' or '-' "
                              "starting with a letter or digit (a file name joins ids by '_')")
    return value


class Documents:
    """Documents of dataclass ``cls``, each the file ``<directory>/<id_of(doc)>.json``
    in a directory that exists.  ``path_for`` is the one place an id becomes a
    file name, and a document read whose id is not its file's name is refused."""

    def __init__(self, directory: Path, cls, id_of):
        self.directory = Path(directory)
        self.cls = cls
        self.id_of = id_of

    def path_for(self, doc_id: str) -> Path:
        return self.directory / f"{check_id(doc_id, _DOC_ID)}.json"

    def exists(self, doc_id: str) -> bool:
        return self.path_for(doc_id).exists()

    def save(self, doc) -> Path:
        return write_json(self.path_for(self.id_of(doc)), doc)

    def load(self, doc_id: str):
        return self._read(self.path_for(doc_id), doc_id)

    def load_all(self, order=None) -> Reading:
        """Every document, in file-name order (names sort as strings, far
        cheaper than Paths) or by ``order`` of its id; see ``Reading``."""
        try:
            ids = [name[:-5] for name in sorted(os.listdir(self.directory)) if name.endswith(".json")]
        except OSError as exc:
            raise _unreadable(self.directory, exc) from None
        return Reading(self, sorted(ids, key=order) if order else ids)

    def _read(self, path: Path | str, doc_id: str):
        doc = from_doc(self.cls, read_json(path), path)
        if self.id_of(doc) != doc_id:
            raise ValidationError(f"{path}: holds {self.id_of(doc)!r}, not the document it names")
        return doc


class Reading:
    """The documents of ``docs`` named ``ids``, each read when iteration
    reaches it, so no more than one is held at a time.  Sized; each pass
    reads every file again, so iterate it once."""

    def __init__(self, docs: Documents, ids: list[str]):
        self._docs, self._ids = docs, ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator:
        directory, read = self._docs.directory, self._docs._read
        return (read(os.path.join(directory, f"{doc_id}.json"), doc_id) for doc_id in self._ids)


# --- the writer ------------------------------------------------------------------


#: exact leaf type -> its JSON text, as json.dumps writes it (floats, rare in
#: these files, take json.dumps itself for its NaN and Infinity spellings)
_LEAF = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
         type(None): lambda _: "null"}


@functools.cache
def _members(cls) -> tuple[tuple[str, str], ...] | None:
    """(field name, its quoted key and separator) of a dataclass, sorted by
    name; None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    names = sorted(f.name for f in dataclasses.fields(cls))
    return tuple((name, _quote(name) + ": ") for name in names)


def _encode(obj, out: list[str], newline: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is a line
    break plus the indent of the line ``obj`` starts on."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
        return
    members = _members(type(obj))
    if members is not None:
        brackets, entries = "{}", [(key, getattr(obj, name)) for name, key in members]
    elif isinstance(obj, dict):
        doc = {str(k): v for k, v in obj.items()}
        brackets, entries = "{}", [(_quote(k) + ": ", doc[k]) for k in sorted(doc)]
    elif isinstance(obj, (list, tuple, frozenset)):
        items = sorted(obj) if isinstance(obj, frozenset) else obj
        brackets, entries = "[]", [("", item) for item in items]
    else:  # a float, a subclass of a leaf type, or a value json cannot write
        out.append(json.dumps(obj, ensure_ascii=False))
        return
    if not entries:
        out.append(brackets)
        return
    inner = newline + "  "
    separator = brackets[0] + inner
    for key, value in entries:
        out.append(separator + key)
        _encode(value, out, inner)
        separator = "," + inner
    out.append(newline + brackets[1])


def from_doc(cls, raw, source: Path | str | None = None):
    """Decode ``raw`` as ``cls`` (a dataclass or a container type hint);
    a mismatch raises ValidationError, prefixed with ``source`` if given."""
    try:
        return _decoder(cls)(raw)
    except ValidationError as exc:
        if source is None:
            raise
        raise ValidationError(f"{source}: {exc}") from None


# --- decoders, built once per type ---------------------------------------------


def _leaf(*kinds):
    """Decoder keeping a value whose exact type is one of ``kinds`` (exact:
    a JSON true is not an int).  ``decode.kinds`` lets a container of leaves
    check all its items in one pass."""
    names = " or ".join(k.__name__ for k in kinds)

    def decode(raw):
        if type(raw) not in kinds:
            raise ValidationError(f"expected {names}, got {type(raw).__name__}")
        return raw
    decode.kinds = frozenset(kinds)
    return decode


_dict, _list = _leaf(dict), _leaf(list)


def _int_key(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"expected an integer key, got {raw!r}") from None


def _any(raw):
    return raw


def _at(where: str, exc: ValidationError) -> ValidationError:
    """``exc`` prefixed with where it happened, so a nested path reads
    ``Record.scores[1][Clarity]: expected int, got str``."""
    message = str(exc)
    return ValidationError(f"{where}{'' if message.startswith('[') else ': '}{message}")


def _locate(entries, item, key=None) -> None:
    """Walk again the (key or index, value) ``entries`` of a container whose
    decoding failed, in decoding order, and raise the first error: a ``key``
    error as it is, an ``item`` error with its key or index.  Runs only on
    the failure path, so decoding a valid document pays nothing for it."""
    for where, value in entries:
        if key is not None:
            key(where)
        try:
            item(value)
        except ValidationError as exc:
            raise _at(f"[{where}]", exc) from None


@functools.cache
def _decoder(tp):
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):  # only `X | None` occurs
        (inner,) = [_decoder(a) for a in args if a is not type(None)]
        return lambda raw: None if raw is None else inner(raw)
    if origin is dict:
        value = _decoder(args[1]) if args else _any
        key = _int_key if args and args[0] is int else None
        kinds = None if key else getattr(value, "kinds", None)

        def decode(raw):
            if kinds and type(raw) is dict and set(map(type, raw.values())) <= kinds:
                return dict(raw)  # every value already has one of the leaf's types
            try:
                if key is None:
                    return {k: value(v) for k, v in _dict(raw).items()}
                return {key(k): value(v) for k, v in _dict(raw).items()}
            except ValidationError:
                if type(raw) is dict:
                    _locate(raw.items(), value, key)
                raise
        return decode
    if origin in (list, tuple, frozenset):
        item = _decoder(args[0]) if args else _any
        kinds = getattr(item, "kinds", None)

        def decode(raw):
            if kinds and type(raw) is list and set(map(type, raw)) <= kinds:
                return origin(raw)
            try:
                return origin(map(item, _list(raw)))
            except ValidationError:
                if type(raw) is list:
                    _locate(enumerate(raw), item)
                raise
        return decode
    if tp is float:  # an integral JSON number stays as it was written
        return _leaf(float, int)
    if tp in (str, int, bool):
        return _leaf(tp)
    return _any


def _dataclass_decoder(cls):
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    decoders = {f.name: _decoder(hints[f.name]) for f in fields}
    required = {f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    name = cls.__name__

    def decode(raw):
        unknown = _dict(raw).keys() - decoders.keys()
        if unknown:
            raise ValidationError(f"unknown {name} fields: {', '.join(sorted(unknown))}")
        missing = required - raw.keys()
        if missing:
            raise ValidationError(f"missing {name} fields: {', '.join(sorted(missing))}")
        kwargs = {}
        for key, value in raw.items():
            try:
                kwargs[key] = decoders[key](value)
            except ValidationError as exc:
                raise _at(f"{name}.{key}", exc) from None
        return cls(**kwargs)
    return decode
