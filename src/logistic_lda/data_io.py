"""Corpus files, binary checkpoints, and prediction output.

Corpus, truth and predictions files: UTF-8 lines, one JSON object each;
a line ends at \\n, and a \\r before it is JSON whitespace.  Line 1 is a
header {"format", "version", "k": K}; every later line is one group with
a non-empty string "id".  A corpus header adds "payload": {"token": V} or
{"dense": E} and optionally "vocab": [V strings]; its groups carry
"items" and an optional "label".  Token items are lists of ids under
either corpus version.  Dense items are lists of E JSON numbers under
version 1, and under version 2, which save_corpus writes, one base64
string of the group's little-endian float64 rows in C order, so the
floats round-trip bit for bit without decimal text.  Truth and
predictions files are version 1.  The readers stream: they decode and
check one line at a time, and a dense corpus's rows go straight into one
buffer that becomes its payload, so a file is never held whole.  The
first faulty line is the error, and no line after it is read.

Checkpoint format: magic "LLDA", little-endian uint32 version, uint32
section count, then sections of (uint32 name length, name bytes, uint64
payload length, payload bytes).  The "meta" section holds a JSON manifest;
every other section is one parameter array as little-endian float64 in C
order.  Length prefixes make truncation detectable.

All writers go through a private temp file beside the target, flushed to
disk and then renamed over it, so partial output never lands at the target
path.  The temp file is made with O_EXCL, so concurrent writers never share
one, and with mode 0o666, less the umask as the kernel applies it (the mode
open() gives a new file); no writer reads or sets the process's umask.
"""

import json
import os
import struct
from base64 import b64decode, b64encode
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain

import numpy as np

from .encoders import EncoderParams, Item, _token_array
from .errors import (
    CheckpointError,
    ContractError,
    CorpusFormatError,
    DomainError,
    IntegrityError,
    UnsupportedVersionError,
)
from .math_kernels import check_int
from .mean_field import FlatGroups, Group, HyperParams, flatten_groups
from .regularizer import RegularizerState

__all__ = [
    "PayloadSpec",
    "Corpus",
    "Checkpoint",
    "corpus_from_groups",
    "save_corpus",
    "load_corpus",
    "save_truth",
    "load_truth",
    "save_checkpoint",
    "load_checkpoint",
    "write_predictions",
    "read_predictions",
    "CHECKPOINT_VERSION",
    "CORPUS_VERSION",
]

CORPUS_VERSION = 2  # the newest corpus version, which save_corpus writes for dense payloads
_READ_VERSIONS = {"corpus": (1, 2), "corpus-truth": (1,), "predictions": (1,)}
CHECKPOINT_VERSION = 1
_MAGIC = b"LLDA"


@dataclass(frozen=True)
class PayloadSpec:
    kind: str   # "token" or "dense"
    size: int   # vocabulary size V, or embedding dimension E


@dataclass
class Corpus:
    """A corpus header (K, payload spec, optional vocab) and its groups,
    packed as one FlatGroups.  However it was built, a Corpus refuses what
    load_corpus would refuse in the file save_corpus writes from it."""

    num_topics: int
    payload: PayloadSpec
    flat: FlatGroups
    vocab: tuple = None

    def __post_init__(self):
        flat, k, spec = self.flat, self.num_topics, self.payload
        if self.vocab is not None:
            try:
                self.vocab = tuple(self.vocab)
            except TypeError:
                raise ContractError("vocab must be an iterable of strings") from None
        _check_header(k, spec.kind, spec.size, self.vocab)
        flat.check()
        if not flat.ids:
            raise ContractError("ids must be one non-empty string per group")
        labels, payload = np.asarray(flat.labels), np.asarray(flat.payload)
        bad = np.flatnonzero((labels < -1) | (labels >= k))
        if bad.size:
            d = bad[0]
            raise ContractError(f"group {flat.ids[d]!r}: label {labels[d]} not in [0, {k})")
        # a dense payload's min and max are NaN or infinite exactly when
        # some entry is, and they take no (N, E) temporary
        if spec.kind == "token":
            _token_array(payload, spec.size)
        elif (payload.shape[1:] != (spec.size,)
              or not np.isfinite([payload.min(), payload.max()]).all()):
            raise ContractError(f"dense payload must be finite (N, {spec.size}) floats")

    @cached_property
    def groups(self):
        """The groups as Group/Item objects, built from `flat` on first use.
        A read-only view for code written against the object API; in the
        package lda_baseline.generate_corpus reads it, and perfbench's
        tracer counts its items."""
        flat, token = self.flat, self.payload.kind == "token"
        rows = flat.payload.tolist() if token else flat.payload
        bounds, labels = flat.offsets.tolist(), flat.labels.tolist()
        return tuple(
            Group(id=gid,
                  items=[Item(token=t) if token else Item(dense=t)
                         for t in rows[bounds[d] : bounds[d + 1]]],
                  label=None if labels[d] < 0 else labels[d])
            for d, gid in enumerate(flat.ids)
        )


def corpus_from_groups(groups, num_topics, vocab=None, vocab_size=None):
    """Pack in-memory groups as a Corpus.  The payload spec comes from the
    packed items: tokens under `vocab_size` (by default the largest token
    plus one), or dense vectors of their one width."""
    flat = flatten_groups(groups)
    if flat.payload.ndim == 1:
        size = (int(flat.payload.max()) + 1 if vocab_size is None
                else check_int(vocab_size, "vocab_size", 1))
        spec = PayloadSpec(kind="token", size=size)
    else:
        spec = PayloadSpec(kind="dense", size=flat.payload.shape[1])
    return Corpus(num_topics=num_topics, payload=spec, flat=flat, vocab=vocab)


def _atomic_write(path, chunks):
    """Write the bytes objects of `chunks` to `path` one after another, through
    a temp file in the same directory that replaces `path` once it is whole
    and synced; on any failure the temp file goes and `path` is untouched."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _group_records(flat):
    """Per group its id, its slice of the item arrays and its label
    (-1 when absent), as Python values."""
    bounds = flat.offsets.tolist()
    return zip(flat.ids, zip(bounds, bounds[1:]), flat.labels.tolist())


_dumps = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(obj, separators=...)


def _write_records(path, header, lines):
    """Write the header object on line 1, then `lines`, one JSON text each,
    encoding one line at a time as the iterable `lines` yields it."""
    lines = chain([_dumps(header)], lines)
    _atomic_write(path, ((line + "\n").encode("utf-8") for line in lines))


def save_corpus(path, corpus: Corpus):
    """Token corpora as version 1, dense ones as version 2."""
    spec = corpus.payload
    dense = spec.kind == "dense"
    header = {"format": "corpus", "version": CORPUS_VERSION if dense else 1,
              "k": corpus.num_topics, "payload": {spec.kind: spec.size}}
    if corpus.vocab is not None:
        header["vocab"] = list(corpus.vocab)
    payload = corpus.flat.payload
    if dense:
        payload = np.ascontiguousarray(payload, dtype="<f8")

    def lines():  # the bytes _dumps gives {"id", "items", "label"}, assembled per group
        for gid, (lo, hi), label in _group_records(corpus.flat):
            items = (b'"%s"' % b64encode(payload[lo:hi]) if dense
                     else _dumps(payload[lo:hi].tolist()).encode())
            yield b'{"id":%s,"items":%s%s}\n' % (
                _dumps(gid).encode(), items, b',"label":%d' % label if label >= 0 else b"")

    _atomic_write(path, chain([f"{_dumps(header)}\n".encode()], lines()))


def _read_lines(fh):
    """The lines of the binary file `fh` as text: each \\n-terminated
    piece, its \\n dropped, decoded on its own.  Bytes that are not UTF-8
    are a format error on their line."""
    for lineno, piece in enumerate(fh, start=1):
        try:
            line = piece.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
        yield line


def _parse_json_line(raw, lineno):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        # nesting deeper than the parser's recursion limit, or an integer
        # longer than Python converts
        raise CorpusFormatError(f"line {lineno}: unreadable JSON ({exc})") from None


def _require(cond, lineno, msg):
    if not cond:
        raise CorpusFormatError(f"line {lineno}: {msg}")


def _ensure(cond, msg):
    if not cond:
        raise ContractError(msg)


def _is_int(value):
    # JSON true/false decode to bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


_NUMBER_TYPES = frozenset((int, float))
_INT_TYPE = frozenset((int,))  # JSON true/false decode to bool, a type of its own
_INT64_MAX = int(np.iinfo(np.int64).max)


def _float_array(value):
    """`value`, a list of JSON numbers or a list of such lists, as a float64
    array; None when it holds anything else.  numpy alone would convert text
    and true/false, so the element types are checked first."""
    if type(value) is not list:
        return None
    elements = value
    if value and type(value[0]) is list:
        if not all(type(row) is list for row in value):
            return None
        elements = chain.from_iterable(value)
    if not _NUMBER_TYPES.issuperset(map(type, elements)):
        return None
    try:
        return np.asarray(value, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows, or an integer beyond float range
        return None


def _finite_array(value):
    """_float_array, and None also when an entry is NaN or infinite."""
    arr = _float_array(value)
    return arr if arr is not None and np.isfinite(arr).all() else None


def _dense_rows(items_raw, size, lineno):
    """A dense group's items as one (n, size) float64 array, checked as a
    whole; the items are walked one by one only to name the one at fault."""
    rows = _float_array(items_raw)
    if rows is None or rows.shape != (len(items_raw), size):
        for j, entry in enumerate(items_raw):
            vec = _float_array(entry)
            _require(vec is not None and vec.shape == (size,), lineno,
                     f"item {j}: expected {size} floats")
    return _finite_rows(rows, lineno)


def _binary_rows(items_raw, size, lineno):
    """A version-2 dense group, base64 of little-endian float64 rows, as one
    (n, size) array over the decoded bytes."""
    try:
        raw = b64decode(items_raw, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise CorpusFormatError(f"line {lineno}: items are not base64 ({exc})") from None
    _require(raw and len(raw) % (8 * size) == 0, lineno,
             f"items hold {len(raw)} bytes, not one or more rows of {size} float64")
    return _finite_rows(np.frombuffer(raw, dtype="<f8").reshape(-1, size), lineno)


def _finite_rows(rows, lineno):
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise CorpusFormatError(
            f"line {lineno}: item {np.argmin(finite)}: embedding has non-finite entries")
    return rows


def _read_header(line, fmt):
    """Line 1 checked: an object with format `fmt`, the version and k >= 1."""
    _require(line.strip(), 1, "missing header record")
    header = _parse_json_line(line, 1)
    _require(isinstance(header, dict), 1, "header must be an object")
    _require(header.get("format") == fmt, 1,
             f"expected format {fmt!r}, got {header.get('format')!r}")
    version = header.get("version")
    _require(_is_int(version) and version in _READ_VERSIONS[fmt], 1,
             f"unsupported {fmt} version {version!r}")
    _require(_is_int(header.get("k")) and header["k"] >= 1, 1,
             "header k must be a positive integer")
    return header


@contextmanager
def _read_records(path, fmt):
    """The checked header of the file at `path`, and a generator of
    (lineno, record) that reads, parses and checks each group line when
    reached, so the first faulty line is the error the caller sees."""
    with open(path, "rb") as fh:
        lines = _read_lines(fh)
        yield _read_header(next(lines, ""), fmt), _group_lines(lines, fmt)


def _group_lines(lines, fmt):
    lineno = 1
    for lineno, raw in enumerate(lines, start=2):
        _require(raw.strip(), lineno, "blank line")
        rec = _parse_json_line(raw, lineno)
        _require(isinstance(rec, dict), lineno, "group record must be an object")
        gid = rec.get("id")
        _require(isinstance(gid, str) and gid, lineno, "group id must be a non-empty string")
        yield lineno, rec
    _require(lineno > 1, 2, f"{fmt} has no groups")


def _check_header(k, kind, size, vocab):
    """The corpus header rules, for a Corpus and for line 1 of its file."""
    _ensure(_is_int(k) and k >= 1, "header k must be a positive integer")
    _ensure(kind in ("token", "dense"), 'header payload must be {"token": V} or {"dense": E}')
    _ensure(_is_int(size) and size >= 1, "payload size must be a positive integer")
    _ensure(kind == "dense" or size <= _INT64_MAX,
            f"vocabulary size {size} is beyond the int64 token ids")
    if vocab is not None:
        _ensure(kind == "token", "vocab only applies to token corpora")
        _ensure(isinstance(vocab, (list, tuple)) and len(vocab) == size,
                "vocab length must equal vocabulary size")
        _ensure(all(isinstance(w, str) for w in vocab), "vocab entries must be strings")


def _check_tokens(items_raw, size, lineno):
    """A token group's items, all JSON integers in [0, size), checked as a
    whole; the items are walked one by one only to name the one at fault."""
    if (_INT_TYPE.issuperset(map(type, items_raw))
            and 0 <= min(items_raw) and max(items_raw) < size):
        return
    for j, entry in enumerate(items_raw):
        _require(_is_int(entry), lineno, f"item {j}: token must be an integer")
        _require(0 <= entry < size, lineno, f"item {j}: token {entry} not in [0, {size})")


def load_corpus(path) -> Corpus:
    """Read a corpus file straight into FlatGroups arrays, one line at a
    time: token lines are checked as Python lists and converted once at
    the end; dense lines are parsed (version 1) or decoded (version 2) as
    one (n, E) array each, and their rows appended to one buffer that
    becomes the payload."""
    with _read_records(path, "corpus") as (header, records):
        k, payload, vocab = header["k"], header.get("payload"), header.get("vocab")
        one_entry = isinstance(payload, dict) and len(payload) == 1
        kind, size = next(iter(payload.items())) if one_entry else (None, None)
        try:
            _check_header(k, kind, size, vocab)
        except ContractError as exc:
            raise CorpusFormatError(f"line 1: {exc}") from None

        binary = kind == "dense" and header["version"] == 2
        ids, labels, sizes, tokens, rows = [], [], [], [], bytearray()
        for lineno, rec in records:
            items_raw = rec.get("items")
            if binary:
                _require(isinstance(items_raw, str), lineno, "items must be a base64 string")
            else:
                _require(isinstance(items_raw, list) and items_raw, lineno,
                         "items must be a non-empty list")
            label = rec.get("label")
            if label is not None:
                _require(_is_int(label) and 0 <= label < k, lineno,
                         f"label {label!r} not in [0, {k})")
            if kind == "token":
                _check_tokens(items_raw, size, lineno)
                tokens.append(items_raw)
                sizes.append(len(items_raw))
            else:
                group = (_binary_rows if binary else _dense_rows)(items_raw, size, lineno)
                rows += group.astype("<f8", copy=False).data
                sizes.append(len(group))
            ids.append(rec["id"])
            labels.append(-1 if label is None else label)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if kind == "token":
        items = np.fromiter(chain.from_iterable(tokens), dtype=np.int64, count=offsets[-1])
    else:
        items = np.frombuffer(rows, dtype="<f8").astype(np.float64, copy=False).reshape(-1, size)
    flat = FlatGroups(payload=items, offsets=offsets,
                      labels=np.array(labels, dtype=np.int64), ids=ids)
    return Corpus(num_topics=k, payload=PayloadSpec(kind=kind, size=size), flat=flat,
                  vocab=vocab)


def save_truth(path, corpus: Corpus, truth):
    """Ground-truth sidecar: per group the generating pi row and the true
    topic of each item, in corpus order."""
    flat, k, pi, z = corpus.flat, corpus.num_topics, truth.pi, truth.z
    _ensure(pi.shape == (flat.num_groups, k) and np.all(np.isfinite(pi)),
            f"truth pi must be one row of {k} finite numbers per group")
    _ensure(z.shape == (flat.num_items,) and z.dtype.kind in "iu" and np.all((z >= 0) & (z < k)),
            f"truth z must be one topic in [0, {k}) per item")
    header = {"format": "corpus-truth", "version": 1, "k": k}
    lines = (_dumps({"id": gid, "pi": pi[d].tolist(), "z": z[lo:hi].tolist()})
             for d, (gid, (lo, hi), _) in enumerate(_group_records(flat)))
    _write_records(path, header, lines)


def load_truth(path):
    """Returns (ids, pi (D, K), z flat, labels) from a sidecar file."""
    with _read_records(path, "corpus-truth") as (header, records):
        k = header["k"]
        ids, pis, zs = [], [], []
        for lineno, rec in records:
            pi = _finite_array(rec.get("pi"))
            _require(pi is not None and pi.shape == (k,), lineno, f"pi must be {k} numbers")
            z = rec.get("z")
            _require(isinstance(z, list) and z, lineno, "z must be a non-empty list")
            _require(_INT_TYPE.issuperset(map(type, z)) and 0 <= min(z) and max(z) < k,
                     lineno, "z entries must be topics in range")
            ids.append(rec["id"])
            pis.append(pi)
            zs.extend(z)
    pi = np.array(pis)
    return ids, pi, np.asarray(zs, dtype=np.int64), pi.argmax(axis=1)


@dataclass
class Checkpoint:
    """Everything needed to resume or apply a trained model.  However it was
    built, a Checkpoint refuses what load_checkpoint would refuse in the
    file save_checkpoint writes from it."""

    hyper: HyperParams
    params: EncoderParams
    reg_state: RegularizerState = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params.check()  # the rules again: with_flat builds without them
        K, params, reg = self.hyper.num_topics, self.params, self.reg_state
        if params.num_topics != K:
            what = (f"the last MLP layer needs {K} outputs" if params.kind == "mlp"
                    else f"table shape {params.table.shape} needs {K} rows")
            raise ContractError(f"{what}, one per topic in alpha")
        # a state that has seen no item has no average yet
        if reg is not None and reg.log_ema_per_topic.shape != ((K,) if reg.items_seen else (0,)):
            raise ContractError(f"reg_log_ema shape {reg.log_ema_per_topic.shape} "
                                f"after {reg.items_seen} items, for {K} topics")
        if reg is not None and not np.all(np.isfinite(reg.log_ema_per_topic)):
            raise DomainError("reg_log_ema must be finite")
        try:
            back = json.loads(json.dumps(self.provenance))
        except (TypeError, ValueError, RecursionError) as exc:
            raise ContractError(f"provenance must be JSON-encodable: {exc}") from None
        if back != self.provenance:
            raise ContractError("provenance must load back from JSON unchanged (string keys, "
                                f"lists, no NaN); {self.provenance!r} loads as {back!r}")


def _array_bytes(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _checkpoint_manifest(cp: Checkpoint):
    arrays = [("alpha", cp.hyper.alpha)]
    enc = {"kind": cp.params.kind}
    if cp.params.kind == "mlp":
        enc["activations"] = list(cp.params.activations)
        for i, (w, b) in enumerate(zip(cp.params.weights, cp.params.biases)):
            arrays.append((f"weights_{i}", w))
            arrays.append((f"biases_{i}", b))
    else:
        arrays.append(("table", cp.params.table))
    reg = None
    if cp.reg_state is not None:
        reg = {"rho": cp.reg_state.rho, "items_seen": int(cp.reg_state.items_seen)}
        arrays.append(("reg_log_ema", cp.reg_state.log_ema_per_topic))
    meta = {
        "hyper": {
            "lam": cp.hyper.lam,
            "gamma": cp.hyper.gamma,
            "n_iter": cp.hyper.n_iter,
            "rho": cp.hyper.rho,
        },
        "encoder": enc,
        "regularizer": reg,
        "provenance": cp.provenance,
        "arrays": [[name, list(a.shape)] for name, a in arrays],
    }
    return meta, arrays


def save_checkpoint(path, cp: Checkpoint):
    meta, arrays = _checkpoint_manifest(cp)
    sections = [("meta", json.dumps(meta, separators=(",", ":")).encode("utf-8"))]
    sections += [(name, _array_bytes(a)) for name, a in arrays]
    out = [_MAGIC, struct.pack("<I", CHECKPOINT_VERSION), struct.pack("<I", len(sections))]
    for name, payload in sections:
        nb = name.encode("utf-8")
        out.append(struct.pack("<I", len(nb)))
        out.append(nb)
        out.append(struct.pack("<Q", len(payload)))
        out.append(payload)
    _atomic_write(path, out)


class _Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise IntegrityError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)
    if cur.take(4) != _MAGIC:
        raise IntegrityError("bad magic bytes; not a checkpoint file")
    version = cur.u32()
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(
            f"checkpoint version {version}; this build reads {CHECKPOINT_VERSION}"
        )
    n_sections = cur.u32()
    sections = {}
    for _ in range(n_sections):
        try:
            name = cur.take(cur.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(f"section name at offset {cur.pos} is not UTF-8") from None
        payload = bytes(cur.take(cur.u64()))
        if name in sections:
            raise IntegrityError(f"duplicate checkpoint section {name!r}")
        sections[name] = payload
    if cur.pos != len(data):
        raise IntegrityError(f"{len(data) - cur.pos} trailing bytes after last section")
    if "meta" not in sections:
        raise IntegrityError("checkpoint has no meta section")
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and bad JSON are ValueErrors
        raise IntegrityError(f"unreadable meta section: {exc}") from None
    try:
        return _checkpoint_from_meta(meta, sections)
    except (CheckpointError, DomainError):
        raise  # already typed
    except ContractError as exc:  # a rule of the objects the meta section builds
        raise _malformed(exc) from None
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        # a field the manifest lacks, or one of the wrong JSON type
        raise _malformed(repr(exc)) from None


def _malformed(msg):
    return IntegrityError(f"malformed meta section: {msg}")


def _checkpoint_from_meta(meta, sections):
    arrays = {}
    for name, shape in meta["arrays"]:
        if name not in sections:
            raise IntegrityError(f"manifest names missing section {name!r}")
        shape = tuple(check_int(s, f"{name} shape") for s in shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = sections[name]
        if len(raw) != count * 8:
            raise IntegrityError(
                f"section {name!r} holds {len(raw)} bytes, manifest shape {shape} needs {count * 8}"
            )
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)

    h, enc, r = meta["hyper"], meta["encoder"], meta.get("regularizer")
    hyper = HyperParams(alpha=arrays["alpha"], lam=h["lam"], gamma=h["gamma"],
                        n_iter=h["n_iter"], rho=h["rho"])
    kind, acts = enc.get("kind"), tuple(enc.get("activations", ()))
    if kind == "mlp":
        layers = range(len(acts))
        params = EncoderParams(kind=kind, weights=tuple(arrays[f"weights_{i}"] for i in layers),
                               biases=tuple(arrays[f"biases_{i}"] for i in layers),
                               activations=acts)
    else:
        params = EncoderParams(kind=kind, table=arrays["table"])
    reg_state = None if r is None else RegularizerState(
        rho=r["rho"], log_ema_per_topic=arrays["reg_log_ema"], items_seen=r["items_seen"])
    return Checkpoint(hyper=hyper, params=params, reg_state=reg_state,
                      provenance=meta.get("provenance", {}))


def _row_format(width):
    # one %-format per row over Python floats; "%.6f" % x is the same
    # string as f"{x:.6f}"
    return "[" + ",".join(["%.6f"] * width) + "]"


@cache
def _digit_words():
    """Tables of the text "%.6f" % x gives for x in [0, 1]: with n = x * 10**6
    rounded to the nearest integer and q, r = divmod(n, 1000), that text is
    "q // 1000 . q % 1000" and the three digits of r.  Returns (head, tail),
    little-endian uint64 words such that head[q] | tail[r] holds its 8 bytes.
    Built on first use, so that no other command pays for it."""
    words = np.zeros((2001, 8), np.uint8)
    words[:1001, :5] = np.frombuffer(
        b"".join([b"%d.%03d" % divmod(q, 1000) for q in range(1001)]), np.uint8).reshape(-1, 5)
    words[1001:, 5:] = np.frombuffer(
        b"".join([b"%03d" % r for r in range(1000)]), np.uint8).reshape(-1, 3)
    words = words.view("<u8")[:, 0]
    return words[:1001], words[1001:]


_CELL = np.dtype([("text", "<u8"), ("sep", "u1")])  # a value's 8 bytes and the byte after
_ONE_BITS = np.float64(1.0).view(np.uint64)
_BLOCK_VALUES = 1024  # values per block of write_predictions: bounds its temporaries


def _fixed_rows(rows):
    """The (R, K) float rows as R pieces of fixed-width text, "[x,...,x],"
    with each x as "%.6f" % x, in one (R, 9K + 2) uint8 array.  A value above
    1, or with its sign bit set (-0.0 included), has another width: the
    second result masks the rows that hold one, whose text the caller
    formats itself, or is None when there are none."""
    R, K = rows.shape
    # the bits of a float with its sign bit clear order as the float does
    odd = rows.view(np.uint64) > _ONE_BITS
    if odd.any():
        rows, odd = np.where(odd, 0.0, rows), odd.any(axis=1)
    else:
        odd = None
    x = rows * 1e6
    n = np.rint(x)
    x -= n
    # rows * 1e6 is within 2**-33 of the exact product, which settles the
    # rounding of every value but those within 1e-6 of a half: their digits
    # come from "%.6f" itself.
    half = np.abs(x, out=x) > 0.5 - 1e-6
    del x
    n = n.astype(np.intp)
    if half.any():
        n[half] = [int(("%.6f" % v).replace(".", "")) for v in rows[half].tolist()]
    q, r = np.divmod(n, 1000)
    del n
    head, tail = _digit_words()
    cells = head.take(q)
    cells |= tail.take(r)
    del q, r
    text = np.empty((R, 9 * K + 2), np.uint8)
    text[:] = np.frombuffer(("[" + ",".join(["0.000000"] * K) + "],").encode(), np.uint8)
    text[:, 1:-1].view(_CELL)["text"] = cells
    return text, odd


def write_predictions(path, ids, labels, p_label, p_items, offsets):
    """One record per group, probabilities fixed to 6 decimal places.

    Output is line-delimited JSON: a header, then
    {"id", "label", "p_label": [...], "p_items": [[...], ...]} per group.
    The rows are formatted a block of whole groups at a time, about
    _BLOCK_VALUES values, into one fixed-width text that each group's line
    takes two slices of; the file is never held whole.
    """
    p_label = np.asarray(p_label, dtype=np.float64)
    p_items = np.asarray(p_items, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    D = len(ids)
    _ensure(D and len(labels) == D and p_label.shape[0] == D and offsets.shape[0] == D + 1,
            "ids, labels, p_label and offsets must agree on one or more groups")
    _ensure(offsets[0] == 0 and offsets[-1] == p_items.shape[0]
            and (offsets[1:] >= offsets[:-1]).all(), "offsets do not cover p_items in order")
    _ensure(p_label.ndim == 2 and p_items.ndim == 2 and p_items.shape[1] == p_label.shape[1],
            "p_items must have one column per column of p_label")
    _ensure(np.all(np.isfinite(p_label)) and np.all(np.isfinite(p_items)),
            "p_label and p_items must be finite")
    _ensure(all(isinstance(g, str) and g for g in ids), "ids must be non-empty strings")
    k = p_label.shape[1]
    fmt_row = _row_format(k)
    width = 9 * k + 2
    block_items = max(1, _BLOCK_VALUES // k)

    def blocks():
        start = 0
        while start < D:
            # whole groups, as many as fit in block_items rows, and at least one
            end = int(np.searchsorted(offsets, offsets[start] + block_items, "right")) - 1
            end = max(end, start + 1)
            bounds = offsets[start : end + 1].tolist()
            # the block's rows: its groups' p_label rows, then their p_items rows,
            # corpus item i being row i + shift
            shift = end - start - bounds[0]
            rows = np.concatenate([p_label[start:end], p_items[bounds[0] : bounds[-1]]])
            text, odd = _fixed_rows(rows)
            text = memoryview(text.reshape(-1))

            def span(a, b):  # the text of rows a..b-1, comma-separated
                if odd is None or not odd[a:b].any():
                    return text[a * width : b * width - 1]
                return b",".join((fmt_row % tuple(rows[i].tolist())).encode() if odd[i]
                                 else text[i * width : (i + 1) * width - 1] for i in range(a, b))

            out = []
            for j, d in enumerate(range(start, end)):
                out += (b'{"id":%s,"label":%d,"p_label":' % (json.dumps(ids[d]).encode(),
                                                            int(labels[d])),
                        span(j, j + 1), b',"p_items":[',
                        span(bounds[j] + shift, bounds[j + 1] + shift), b"]}\n")
            yield b"".join(out)
            start = end

    header = _dumps({"format": "predictions", "version": 1, "k": k})
    _atomic_write(path, chain([f"{header}\n".encode()], blocks()))


def read_predictions(path):
    """Returns (ids, labels, p_label, p_items list of per-group arrays)."""
    with _read_records(path, "predictions") as (header, records):
        k = header["k"]
        ids, labels, p_label, p_items = [], [], [], []
        for lineno, rec in records:
            label = rec.get("label")
            _require(_is_int(label), lineno, f"label {label!r} is not an integer")
            pl, pi = _finite_array(rec.get("p_label")), _finite_array(rec.get("p_items"))
            _require(pl is not None and pl.shape == (k,), lineno, f"p_label must be {k} numbers")
            _require(pi is not None and pi.ndim == 2 and pi.shape[1] == k, lineno,
                     f"p_items must be rows of {k} numbers")
            ids.append(rec["id"])
            labels.append(label)
            p_label.append(pl)
            p_items.append(pi)
    return ids, np.asarray(labels, dtype=np.int64), np.asarray(p_label, dtype=np.float64), p_items
