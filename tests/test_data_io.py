import base64
import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logistic_lda.data_io import (
    CHECKPOINT_VERSION,
    Checkpoint,
    Corpus,
    PayloadSpec,
    _read_lines,
    corpus_from_groups,
    load_checkpoint,
    load_corpus,
    load_truth,
    read_predictions,
    save_checkpoint,
    save_corpus,
    save_truth,
    write_predictions,
)
from logistic_lda.encoders import EncoderParams, Item, init_params
from logistic_lda.errors import (
    CheckpointError,
    ContractError,
    CorpusFormatError,
    DomainError,
    IntegrityError,
    UnsupportedVersionError,
)
from logistic_lda.lda_baseline import CorpusTruth, generate_corpus
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import FlatGroups, Group, HyperParams, flatten_groups
from logistic_lda.regularizer import RegularizerState

from oracles import reference_load_corpus, reference_read_lines


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


HEADER = '{"format":"corpus","version":1,"k":3,"payload":{"token":5}}'
PRED_HEADER = '{"format":"predictions","version":1,"k":2}'
PRED_RECORD = '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[[0.5,0.5]]}'


class TestCorpusLoad:
    def test_minimal_token_corpus(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"g1","items":[2]}'])
        corpus = load_corpus(p)
        assert corpus.num_topics == 3
        assert corpus.payload == PayloadSpec(kind="token", size=5)
        assert len(corpus.groups) == 1
        assert corpus.groups[0].items[0].token == 2
        assert corpus.groups[0].label is None

    def test_token_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"g1","items":[1]}', '{"id":"g2","items":[5]}'])
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_corpus(p)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"g1","items":[1]', ])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"g1","label":3,"items":[0]}'])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    def test_boolean_label_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"g1","items":[0]}', '{"id":"g2","label":true,"items":[0]}'])
        with pytest.raises(CorpusFormatError, match="line 3: label True"):
            load_corpus(p)

    def test_mixed_payload_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"g1","items":[[0.1,0.2]]}'])
        with pytest.raises(CorpusFormatError, match="token must be an integer"):
            load_corpus(p)

    @pytest.mark.parametrize("vocab", ['[null,"b","c","d","e"]', '["a",true,"c","d","e"]',
                                       '["a","b",{"x":1},"d","e"]', '["a","b","c",4,"e"]',
                                       '["a","b","c","d",["e"]]'],
                             ids=["null", "boolean", "object", "number", "list"])
    def test_vocab_entries_must_be_strings(self, tmp_path, vocab):
        p = tmp_path / "c.jsonl"
        header = HEADER[:-1] + f',"vocab":{vocab}}}'
        write_lines(p, [header, '{"id":"g1","items":[2]}'])
        with pytest.raises(CorpusFormatError, match="line 1: vocab entries must be strings"):
            load_corpus(p)

    def test_nan_embedding_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [
            '{"format":"corpus","version":1,"k":2,"payload":{"dense":2}}',
            '{"id":"g1","items":[[0.1,NaN]]}',
        ])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    @pytest.mark.parametrize("header,loader,message", [
        ('{"format":"corpus","version":1,"k":true,"payload":{"token":5}}', load_corpus,
         "header k must be a positive integer"),
        ('{"format":"corpus","version":1,"k":3,"payload":{"token":true}}', load_corpus,
         "payload size must be a positive integer"),
        ('{"format":"corpus","version":true,"k":3,"payload":{"token":5}}', load_corpus,
         "unsupported corpus version True"),
        ('{"format":"corpus-truth","version":1,"k":true}', load_truth,
         "header k must be a positive integer"),
    ], ids=["corpus-k", "payload-size", "corpus-version", "truth-k"])
    def test_boolean_header_number_is_format_error(self, tmp_path, header, loader, message):
        # JSON true decodes to a Python int subclass; it is not a number here
        p = tmp_path / "c.jsonl"
        write_lines(p, [header, '{"id":"g1","items":[0],"pi":[1.0],"z":[0]}'])
        with pytest.raises(CorpusFormatError, match="line 1: " + message):
            loader(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER])
        with pytest.raises(CorpusFormatError, match="no groups"):
            load_corpus(p)

    def test_wrong_format_field(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"format":"zebra","version":1}'])
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_vocab_roundtrip(self, tmp_path):
        groups = [Group(id="g", items=[Item(token=0), Item(token=1)])]
        corpus = corpus_from_groups(groups, 2, vocab=("aa", "bb"), vocab_size=2)
        p = tmp_path / "c.jsonl"
        save_corpus(p, corpus)
        back = load_corpus(p)
        assert back.vocab == ("aa", "bb")


class TestCorpusRoundtrip:
    def test_generated_token_corpus_value_identical(self, tmp_path):
        rng = SeededRng(1)
        beta = rng.gen.dirichlet(np.ones(7), size=3)
        groups, _ = generate_corpus(3, 7, 12, 6, np.full(3, 0.4), beta, rng, labeled=True)
        corpus = corpus_from_groups(groups, 3, vocab_size=7)
        p = tmp_path / "c.jsonl"
        save_corpus(p, corpus)
        back = load_corpus(p)
        assert back.num_topics == corpus.num_topics
        assert back.payload == corpus.payload
        for a, b in zip(corpus.groups, back.groups):
            assert a.id == b.id and a.label == b.label
            assert [i.token for i in a.items] == [i.token for i in b.items]

    def test_dense_corpus_value_identical(self, tmp_path):
        rng = SeededRng(2)
        groups = [
            Group(id=f"g{i}", items=[Item(dense=rng.gen.normal(size=4)) for _ in range(3)])
            for i in range(5)
        ]
        corpus = corpus_from_groups(groups, 2)
        p = tmp_path / "c.jsonl"
        save_corpus(p, corpus)
        back = load_corpus(p)
        for a, b in zip(corpus.groups, back.groups):
            for ia, ib in zip(a.items, b.items):
                np.testing.assert_array_equal(ia.dense, ib.dense)

    @pytest.mark.parametrize("groups,kwargs,message", [
        ([Group(id="a", items=[Item(dense=np.zeros(2))]),
          Group(id="b", items=[Item(dense=np.zeros(3))])], {}, r"different widths \[2, 3\]"),
        ([Group(id="a", items=[Item(token=0), Item(token=7)])], {"vocab_size": 5},
         r"token 7 not in the vocabulary \[0, 5\)"),
        ([Group(id="a", items=[Item(token=0)], label=2)], {},
         r"group 'a': label 2 not in \[0, 2\)"),
    ], ids=["dense-widths", "token-beyond-vocab", "label-beyond-k"])
    def test_wrap_refuses_what_load_refuses(self, groups, kwargs, message):
        # each of these would be saved as a file that load_corpus rejects
        with pytest.raises(ContractError, match=message):
            corpus_from_groups(groups, 2, **kwargs)

    def test_mixed_groups_rejected_at_wrap(self):
        groups = [
            Group(id="a", items=[Item(token=0)]),
            Group(id="b", items=[Item(dense=np.zeros(2))]),
        ]
        with pytest.raises(ContractError):
            corpus_from_groups(groups, 2)

    @pytest.mark.parametrize("gid", [5, ""])
    def test_wrap_refuses_an_id_that_is_not_a_nonempty_string(self, gid):
        with pytest.raises(ContractError, match="ids must be one non-empty string per group"):
            corpus_from_groups([Group(id=gid, items=[Item(token=0)])], 2)

    @pytest.mark.parametrize("token", [2**63, 2**70])
    def test_wrap_refuses_a_token_beyond_int64(self, token):
        groups = [Group(id="a", items=[Item(token=0)]),
                  Group(id="b", items=[Item(token=1), Item(token=token)])]
        with pytest.raises(ContractError,
                           match=rf"group 'b': token {token} outside the int64 range"):
            corpus_from_groups(groups, 2)


def _flat(payload, offsets, labels, ids):
    return FlatGroups(payload=np.asarray(payload), offsets=np.asarray(offsets, dtype=np.int64),
                      labels=np.asarray(labels, dtype=np.int64), ids=list(ids))


class TestCorpusContract:
    """A Corpus built straight from arrays refuses what load_corpus would
    refuse in the file that save_corpus writes from it."""

    @pytest.mark.parametrize("spec,flat,message", [
        (("token", 3), _flat([0, 7], [0, 2], [0], ["a"]),
         r"token 7 not in the vocabulary \[0, 3\)"),
        (("token", 3), _flat([0, 1], [0, 2], [5], ["a"]), r"group 'a': label 5 not in \[0, 2\)"),
        (("dense", 3), _flat(np.zeros((2, 4)), [0, 2], [0], ["a"]), r"finite \(N, 3\) floats"),
        (("dense", 3), _flat([0, 1], [0, 2], [0], ["a"]), r"finite \(N, 3\) floats"),
        (("token", 3), _flat([0, 1, 2], [0, 1, 2], [0, 1], ["a", "b"]), "offsets must split"),
        (("token", 3), _flat([0, 1], [0, 0, 2], [0, 1], ["a", "b"]), "offsets must split"),
        (("dense", 2), _flat([[0.0, np.nan]], [0, 1], [0], ["a"]), r"finite \(N, 2\) floats"),
        (("token", 3), _flat([0, 1], [0, 2], [-2], ["a"]), r"label -2 not in \[0, 2\)"),
        (("token", 3), _flat([0, 1], [0, 2], [0, 1], ["a"]), "one integer per group"),
        (("token", 3), _flat([0, 1], [0, 2], [0], ["a", "b"]), "one non-empty string per group"),
        (("token", 2**63), _flat([0, 1], [0, 2], [0], ["a"]),
         "vocabulary size 9223372036854775808 is beyond the int64 token ids"),
    ], ids=["token-beyond-vocab", "label-beyond-k", "dense-width", "tokens-under-dense",
            "short-offsets", "empty-group", "non-finite", "label-below-absent",
            "labels-per-group", "ids-per-group", "vocabulary-beyond-int64"])
    def test_refuses(self, spec, flat, message):
        with pytest.raises(ContractError, match=message):
            Corpus(num_topics=2, payload=PayloadSpec(*spec), flat=flat)

    @pytest.mark.parametrize("k,size", [(2.5, 3), (True, 3), (2, 3.5), (2, True)])
    def test_header_numbers_must_be_integers(self, k, size):
        # the file holds them as JSON numbers, which load_corpus refuses
        # unless they are integers
        with pytest.raises(ContractError, match="must be a positive integer"):
            Corpus(num_topics=k, payload=PayloadSpec("token", size),
                   flat=_flat([0, 1], [0, 2], [0], ["a"]))

    @pytest.mark.parametrize("vocab", [[1, "b", "c"], ["a", None, "c"], ["a", "b", b"c"]],
                             ids=["number", "null", "bytes"])
    def test_vocab_entries_must_be_strings(self, vocab):
        # str() would save them as the words '1', 'None', "b'c'"
        with pytest.raises(ContractError, match="vocab entries must be strings"):
            Corpus(num_topics=2, payload=PayloadSpec("token", 3),
                   flat=_flat([0, 1], [0, 2], [0], ["a"]), vocab=vocab)

    @pytest.mark.parametrize("vocab", [5, 2.5, True])
    def test_vocab_that_is_not_iterable_is_refused(self, vocab):
        with pytest.raises(ContractError, match="vocab must be an iterable of strings"):
            Corpus(num_topics=2, payload=PayloadSpec("token", 3),
                   flat=_flat([0, 1], [0, 2], [0], ["a"]), vocab=vocab)

    @pytest.mark.parametrize("make", [list, iter, dict.fromkeys, lambda w: (x for x in w)],
                             ids=["list", "iterator", "dict", "generator"])
    def test_vocab_from_any_iterable_constructs(self, make):
        corpus = Corpus(num_topics=2, payload=PayloadSpec("token", 3),
                        flat=_flat([0, 1], [0, 2], [0], ["a"]), vocab=make(["a", "b", "c"]))
        assert corpus.vocab == ("a", "b", "c")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_corpus_that_constructs_loads_back_bitwise(self, tmp_path_factory, data):
        # each part of the corpus breaks the contract in one draw of eight,
        # so about a third of the corpora construct; those must save a file
        # that loads back to the same arrays
        def rarely():
            return data.draw(st.integers(0, 7)) == 0

        def spoil(values, *faults):
            if rarely():
                values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
                    st.sampled_from(faults))
            return values

        kind = data.draw(st.sampled_from(["token", "dense"]))
        k, size, n = (data.draw(st.integers(1, 3)) for _ in range(3))
        if (kind == "token") != rarely():
            tokens = data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
            payload = np.array(spoil(tokens, -1, size), dtype=np.int64)
        else:
            width = size + rarely()
            cells = data.draw(st.lists(st.floats(width=64), min_size=n * width,
                                       max_size=n * width))
            payload = np.array(cells, dtype=np.float64).reshape(n, width)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        offsets = [0, *cuts, n - rarely()]
        d = len(offsets) - 1
        labels = spoil(data.draw(st.lists(st.integers(-1, k - 1), min_size=d, max_size=d)), -2, k)
        ids = spoil(data.draw(st.lists(st.text(min_size=1, max_size=2), min_size=d, max_size=d)),
                    "", 5)
        vocab = None
        if (kind == "token") != rarely() and data.draw(st.booleans()):
            vocab = [f"w{v}" for v in range(size + rarely())]
        try:
            corpus = Corpus(num_topics=k, payload=PayloadSpec(kind, size),
                            flat=_flat(payload, offsets, labels, ids), vocab=vocab)
        except ContractError:
            return
        p = tmp_path_factory.getbasetemp() / "constructed.jsonl"
        save_corpus(p, corpus)
        back = load_corpus(p)
        assert (back.num_topics, back.payload, back.vocab) == (k, corpus.payload, corpus.vocab)
        assert back.flat.ids == corpus.flat.ids
        for name in ("payload", "offsets", "labels"):
            got, want = getattr(back.flat, name), getattr(corpus.flat, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def _b64(rows):
    """Version-2 dense items: base64 of the rows as little-endian float64."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def _random_corpus_lines(seed, kind, labels, vocab=False):
    """A header and ragged groups (one-item ones included) of random items;
    kind is "token" or "dense", with "-v2" for a version-2 header (dense
    rows then travel as base64), and labels is "all", "none" or "mixed"."""
    rng = np.random.default_rng(seed)
    kind, v2 = kind.removesuffix("-v2"), kind.endswith("-v2")
    k, size = 3, (7 if kind == "token" else 3)
    header = {"format": "corpus", "version": 2 if v2 else 1, "k": k, "payload": {kind: size}}
    if vocab:
        header["vocab"] = [f"w{v}" for v in range(size)]
    lines = [json.dumps(header)]
    for d in range(int(rng.integers(1, 9))):
        n = int(rng.choice([1, 1, 2, 5, 13]))
        if kind == "token":
            items = rng.integers(0, size, n).tolist()
        else:
            items = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=(n, size)).tolist()
            items[0][0] = int(rng.integers(-5, 5))  # JSON integers are numbers too
            items[-1][-1] = -0.0
            if v2:
                items = _b64(items)
        rec = {"id": f"g{d}", "items": items}
        if labels == "all" or (labels == "mixed" and rng.random() < 0.5):
            rec["label"] = int(rng.integers(0, k))
        lines.append(json.dumps(rec))
    return lines


def _outcome(loader, path):
    """The corpus a loader returns, or the type and text of what it raises."""
    try:
        return loader(path)
    except Exception as exc:  # noqa: BLE001  (the comparison is the test)
        return type(exc), str(exc)


def _assert_same_corpus(got, ref):
    want = flatten_groups(ref.groups)
    for name in ("payload", "offsets", "labels"):
        a, b = getattr(got.flat, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), name
    assert got.flat.ids == want.ids
    assert (got.num_topics, got.payload, got.vocab) == (ref.num_topics, ref.payload, ref.vocab)


TOKEN_HEADER = '{"format":"corpus","version":1,"k":3,"payload":{"token":5}}'
DENSE_HEADER = '{"format":"corpus","version":1,"k":2,"payload":{"dense":2}}'
DENSE2_HEADER = '{"format":"corpus","version":2,"k":2,"payload":{"dense":2}}'
HUGE = "1" + "0" * 400


def _v2_line(items, label=None):
    rec = {"id": "a", "items": items}
    if label is not None:
        rec["label"] = label
    return json.dumps(rec, ensure_ascii=False)


# version-2 dense group lines load_corpus refuses, each with the message it gives
BROKEN_V2 = {
    "list-items": (_v2_line([[0.5, 1.5]]), "items must be a base64 string"),
    "number-items": (_v2_line(3), "items must be a base64 string"),
    "no-items": ('{"id":"a"}', "items must be a base64 string"),
    "bad-alphabet": (_v2_line("AAAA!AAA"), r"items are not base64 \(.*\)"),
    "bad-padding": (_v2_line("AAAAA"), r"items are not base64 \(.*\)"),
    "leading-padding": (_v2_line("=AAA"), r"items are not base64 \(.*\)"),
    "whitespace": (_v2_line(_b64([[0.5, 1.5]])[:8] + " " + _b64([[0.5, 1.5]])[8:]),
                   r"items are not base64 \(.*\)"),
    "non-ascii": (_v2_line("AAAA\u00e9AAA"), r"items are not base64 \(.*ASCII.*\)"),
    "zero-bytes": (_v2_line(""), "items hold 0 bytes, not one or more rows of 2 float64"),
    "partial-row": (_v2_line(_b64([0.5, 1.5, 2.5])),
                    "items hold 24 bytes, not one or more rows of 2 float64"),
    "partial-float": (_v2_line(base64.b64encode(bytes(20)).decode()),
                      "items hold 20 bytes, not one or more rows of 2 float64"),
    "nan": (_v2_line(_b64([[0.5, 1.5], [np.nan, 1.0]])),
            "item 1: embedding has non-finite entries"),
    "infinity": (_v2_line(_b64([[-np.inf, 1.0]])), "item 0: embedding has non-finite entries"),
    "label-beyond-k": (_v2_line(_b64([[0.5, 1.5]]), label=2), r"label 2 not in \[0, 2\)"),
}

# corpora both loaders refuse: (header, group lines)
BROKEN = {
    "float-token": (TOKEN_HEADER, ['{"id":"a","items":[0,1.0]}']),
    "boolean-token": (TOKEN_HEADER, ['{"id":"a","items":[true]}']),
    "false-token": (TOKEN_HEADER, ['{"id":"a","items":[1,false]}']),
    "text-token": (TOKEN_HEADER, ['{"id":"a","items":["1"]}']),
    "null-token": (TOKEN_HEADER, ['{"id":"a","items":[null]}']),
    "list-token": (TOKEN_HEADER, ['{"id":"a","items":[[1]]}']),
    "negative-token": (TOKEN_HEADER, ['{"id":"a","items":[2,-1]}']),
    "token-at-vocab-size": (TOKEN_HEADER, ['{"id":"a","items":[5]}']),
    "range-before-type": (TOKEN_HEADER, ['{"id":"a","items":[1,7,"x"]}']),
    "type-before-range": (TOKEN_HEADER, ['{"id":"a","items":["x",7]}']),
    "huge-token": (TOKEN_HEADER, ['{"id":"a","items":[0,' + HUGE + ']}']),
    "huge-negative-token": (TOKEN_HEADER, ['{"id":"a","items":[-' + HUGE + ']}']),
    "unconvertible-token": (TOKEN_HEADER, ['{"id":"a","items":[1' + "0" * 5000 + ']}']),
    "token-line-before-label-line": (TOKEN_HEADER, ['{"id":"a","items":[0]}',
                                                    '{"id":"b","items":[9]}',
                                                    '{"id":"c","label":3,"items":[0]}']),
    "label-before-token": (TOKEN_HEADER, ['{"id":"a","label":3,"items":[9]}']),
    "label-negative": (TOKEN_HEADER, ['{"id":"a","label":-1,"items":[0]}']),
    "label-float": (TOKEN_HEADER, ['{"id":"a","label":1.0,"items":[0]}']),
    "label-text": (TOKEN_HEADER, ['{"id":"a","label":"1","items":[0]}']),
    "no-items": (TOKEN_HEADER, ['{"id":"a"}']),
    "empty-items": (TOKEN_HEADER, ['{"id":"a","items":[]}']),
    "items-object": (TOKEN_HEADER, ['{"id":"a","items":{"0":1}}']),
    "no-id": (TOKEN_HEADER, ['{"items":[0]}']),
    "empty-id": (TOKEN_HEADER, ['{"id":"","items":[0]}']),
    "numeric-id": (TOKEN_HEADER, ['{"id":3,"items":[0]}']),
    "record-list": (TOKEN_HEADER, ['[0,1]']),
    "blank-line": (TOKEN_HEADER, ['{"id":"a","items":[0]}', "", '{"id":"b","items":[0]}']),
    "bad-json": (TOKEN_HEADER, ['{"id":"a","items":[0]}', '{"id":"b",']),
    "header-only": (TOKEN_HEADER, []),
    "vocab-on-dense": ('{"format":"corpus","version":1,"k":2,"payload":{"dense":2},'
                       '"vocab":["a","b"]}', ['{"id":"a","items":[[0,0]]}']),
    "vocab-too-short": (TOKEN_HEADER[:-1] + ',"vocab":["a"]}', ['{"id":"a","items":[0]}']),
    "zero-topics": ('{"format":"corpus","version":1,"k":0,"payload":{"token":5}}',
                    ['{"id":"a","items":[0]}']),
    "two-payloads": ('{"format":"corpus","version":1,"k":2,"payload":{"token":5,"dense":2}}',
                     ['{"id":"a","items":[0]}']),
    "dense-wide": (DENSE_HEADER, ['{"id":"a","items":[[1,2,3]]}']),
    "dense-flat": (DENSE_HEADER, ['{"id":"a","items":[1,2]}']),
    "dense-ragged": (DENSE_HEADER, ['{"id":"a","items":[[1,2],[1]]}']),
    "dense-text": (DENSE_HEADER, ['{"id":"a","items":[[1,"2"]]}']),
    "dense-boolean": (DENSE_HEADER, ['{"id":"a","items":[[true,1]]}']),
    "dense-nan": (DENSE_HEADER, ['{"id":"a","items":[[0,1],[NaN,1]]}']),
    "dense-overflow": (DENSE_HEADER, ['{"id":"a","items":[[1e400,1]]}']),
    "dense-huge-integer": (DENSE_HEADER, ['{"id":"a","items":[[' + HUGE + ',1]]}']),
    "token-in-dense": (DENSE_HEADER, ['{"id":"a","items":[3]}']),
    **{f"v2-{case}": (DENSE2_HEADER, [line]) for case, (line, _) in BROKEN_V2.items()},
}


class TestArrayLoaderMatchesReference:
    """load_corpus fills FlatGroups straight from the file; the earlier
    object loader (tests/oracles.py) followed by flatten_groups is the
    reference for both the arrays and the errors."""

    @pytest.mark.parametrize("kind", ["token", "dense", "token-v2", "dense-v2"])
    @pytest.mark.parametrize("labels", ["all", "none", "mixed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_arrays(self, tmp_path, kind, labels, seed):
        p = tmp_path / "c.jsonl"
        write_lines(p, _random_corpus_lines(seed, kind, labels, vocab=kind.startswith("token")))
        _assert_same_corpus(load_corpus(p), reference_load_corpus(p))

    def test_same_arrays_on_generated_corpus(self, tmp_path, valid_files):
        p = tmp_path / "c.jsonl"
        p.write_bytes(valid_files["c.jsonl"])
        _assert_same_corpus(load_corpus(p), reference_load_corpus(p))

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_same_error(self, tmp_path, case):
        header, lines = BROKEN[case]
        p = tmp_path / "c.jsonl"
        write_lines(p, [header, *lines])
        got, want = _outcome(load_corpus, p), _outcome(reference_load_corpus, p)
        assert want[0] is CorpusFormatError
        assert got == want

    @pytest.mark.parametrize("kind", ["token", "dense", "dense-v2"])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_same_outcome_on_corrupt_bytes(self, tmp_path_factory, kind, data):
        raw = bytearray(("\n".join(_random_corpus_lines(7, kind, "mixed", vocab=kind == "token"))
                         + "\n").encode("utf-8"))
        for _ in range(data.draw(st.integers(1, 3))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        p = tmp_path_factory.getbasetemp() / f"corrupt-{kind}.jsonl"
        p.write_bytes(bytes(raw))
        got, want = _outcome(load_corpus, p), _outcome(reference_load_corpus, p)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_corpus(got, want)

    def test_vocabulary_beyond_int64_is_format_error(self, tmp_path):
        # every id below the header's size passes the range check, so the
        # size itself must fit the int64 payload
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"format":"corpus","version":1,"k":2,"payload":{"token":%d}}' % 2**63,
                        '{"id":"a","items":[%d]}' % (2**63 - 1)])
        with pytest.raises(CorpusFormatError, match="line 1: vocabulary size"):
            load_corpus(p)
        write_lines(p, ['{"format":"corpus","version":1,"k":2,"payload":{"token":%d}}'
                        % (2**63 - 1), '{"id":"a","items":[%d]}' % (2**63 - 2)])
        assert load_corpus(p).flat.payload.tolist() == [2**63 - 2]

    @pytest.mark.parametrize("kind", ["token", "dense", "dense-v2"])
    def test_groups_view_rebuilds_the_groups(self, tmp_path, kind):
        p = tmp_path / "c.jsonl"
        write_lines(p, _random_corpus_lines(3, kind, "mixed"))
        view, ref = load_corpus(p).groups, reference_load_corpus(p).groups
        assert isinstance(view, tuple) and len(view) == len(ref)
        for a, b in zip(view, ref):
            assert (a.id, a.label, len(a.items)) == (b.id, b.label, len(b.items))
            for ia, ib in zip(a.items, b.items):
                assert ia.token == ib.token
                assert (ia.dense is None) == (ib.dense is None)
                if ia.dense is not None:
                    assert ia.dense.tobytes() == ib.dense.tobytes()


TRUTH_HEADER = '{"format":"corpus-truth","version":1,"k":2}'
TRUTH_RECORD = '{"id":"a","pi":[0.5,0.5],"z":[0]}'


class TestTruthSidecar:
    def test_roundtrip(self, tmp_path):
        rng = SeededRng(3)
        beta = rng.gen.dirichlet(np.ones(6), size=2)
        groups, truth = generate_corpus(2, 6, 8, 4, np.ones(2), beta, rng)
        corpus = corpus_from_groups(groups, 2, vocab_size=6)
        p = tmp_path / "t.jsonl"
        save_truth(p, corpus, truth)
        ids, pi, z, labels = load_truth(p)
        assert ids == [g.id for g in groups]
        np.testing.assert_array_equal(z, truth.z)
        np.testing.assert_array_equal(labels, truth.labels)
        np.testing.assert_array_equal(pi, truth.pi)  # decimal text is exact

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.pi.__setitem__((0, 1), np.nan), "pi must be one row of 2 finite numbers"),
        (lambda t: t.pi.__setitem__((1, 0), np.inf), "pi must be one row of 2 finite numbers"),
        (lambda t: t.z.__setitem__(3, 2), r"z must be one topic in \[0, 2\) per item"),
        (lambda t: t.z.__setitem__(0, -1), r"z must be one topic in \[0, 2\) per item"),
    ], ids=["nan-pi", "infinite-pi", "z-beyond-k", "z-negative"])
    def test_save_refuses_what_load_refuses(self, tmp_path, edit, message):
        rng = SeededRng(3)
        groups, truth = generate_corpus(2, 6, 8, 4, np.ones(2), np.full((2, 6), 1 / 6), rng)
        corpus = corpus_from_groups(groups, 2, vocab_size=6)
        edit(truth)
        p = tmp_path / "t.jsonl"
        with pytest.raises(ContractError, match=message):
            save_truth(p, corpus, truth)
        assert not p.exists()

    @pytest.mark.parametrize("pi", ['["x", 0.5, 0.5]', "[[0.5], 0.25, 0.25]", '{"a": 1}', "null",
                                    '["0.2", 0.3, 0.5]', "[true, 0, 0]", "[NaN, 0.5, 0.5]",
                                    "[Infinity, 0, 0]"],
                             ids=["text", "ragged", "object", "null", "numeric-text", "boolean",
                                  "nan", "infinity"])
    def test_malformed_pi_is_format_error(self, tmp_path, pi):
        p = tmp_path / "t.jsonl"
        write_lines(p, ['{"format":"corpus-truth","version":1,"k":3}',
                        '{"id":"a","pi":[0.2,0.3,0.5],"z":[0]}',
                        '{"id":"b","pi":' + pi + ',"z":[1]}'])
        with pytest.raises(CorpusFormatError, match="line 3: pi must be 3 numbers"):
            load_truth(p)

    @pytest.mark.parametrize("lines,message", [
        ([TRUTH_HEADER, TRUTH_RECORD, "", TRUTH_RECORD], "line 3: blank line"),
        ([TRUTH_HEADER, TRUTH_RECORD.replace('"a"', '""')],
         "line 2: group id must be a non-empty string"),
        ([TRUTH_HEADER], "line 2: corpus-truth has no groups"),
    ], ids=["blank-line", "empty-id", "header-only"])
    def test_malformed_is_format_error(self, tmp_path, lines, message):
        p = tmp_path / "t.jsonl"
        write_lines(p, lines)
        with pytest.raises(CorpusFormatError, match=message):
            load_truth(p)

    def test_boolean_topics_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_lines(p, ['{"format":"corpus-truth","version":1,"k":2}',
                        '{"id":"a","pi":[0.5,0.5],"z":[0]}',
                        '{"id":"b","pi":[0.5,0.5],"z":[true,false]}'])
        with pytest.raises(CorpusFormatError, match="line 3: z entries must be topics"):
            load_truth(p)

    @pytest.mark.parametrize("entry", ["true", "1.0", "-1", "2", "[1]", '"1"'],
                             ids=["bool", "float", "negative", "k", "nested-list", "string"])
    def test_each_bad_topic_is_refused_after_good_ones(self, tmp_path, entry):
        # z is checked as a whole list, so the bad entry sits behind good ones
        p = tmp_path / "t.jsonl"
        write_lines(p, ['{"format":"corpus-truth","version":1,"k":2}',
                        '{"id":"a","pi":[0.5,0.5],"z":[0]}',
                        '{"id":"b","pi":[0.5,0.5],"z":[0,1,' + entry + ',1]}'])
        with pytest.raises(CorpusFormatError,
                           match=r"^line 3: z entries must be topics in range$"):
            load_truth(p)


def make_checkpoint(kind="mlp", with_reg=True):
    rng = SeededRng(7)
    if kind == "mlp":
        params = init_params("mlp", (4, 5, 3), 0.8, rng)
    else:
        params = init_params("table", (3, 6), 0.8, rng)
    hyper = HyperParams(alpha=rng.gen.uniform(0.2, 1.0, size=3), lam=1.5, gamma=0.01,
                        n_iter=4, rho=0.95)
    reg = None
    if with_reg:
        reg = RegularizerState(rho=0.9, log_ema_per_topic=rng.gen.normal(size=3),
                               items_seen=128)
    return Checkpoint(hyper=hyper, params=params, reg_state=reg,
                      provenance={"seed": 7, "epochs": 20})


def unchained_mlp():
    cp = make_checkpoint()
    W0, _ = cp.params.weights
    cp.params.weights = (W0, np.zeros((3, 6)))  # layer 1 reads 6 inputs, layer 0 gives 5
    return cp


def short_reg_ema():
    cp = make_checkpoint()
    cp.reg_state.log_ema_per_topic = np.zeros(2)  # alpha has 3 topics
    return cp


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["mlp", "table"])
    @pytest.mark.parametrize("with_reg", [True, False])
    def test_roundtrip_bit_identical(self, tmp_path, kind, with_reg):
        cp = make_checkpoint(kind, with_reg)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, cp)
        back = load_checkpoint(p)
        assert back.params.kind == cp.params.kind
        assert back.params.flat.tobytes() == cp.params.flat.tobytes()
        assert back.hyper.alpha.tobytes() == cp.hyper.alpha.tobytes()
        assert back.hyper.lam == cp.hyper.lam
        assert back.hyper.n_iter == cp.hyper.n_iter
        assert back.provenance == cp.provenance
        if with_reg:
            assert (back.reg_state.log_ema_per_topic.tobytes()
                    == cp.reg_state.log_ema_per_topic.tobytes())
            assert back.reg_state.items_seen == cp.reg_state.items_seen
        else:
            assert back.reg_state is None

    def test_empty_regularizer_state_still_loads(self, tmp_path):
        # what a gamma = 0 variational run used to save: a state that has
        # seen no item and holds no average
        cp = make_checkpoint(with_reg=False)
        cp.reg_state = RegularizerState(rho=0.99, log_ema_per_topic=np.empty(0), items_seen=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, cp)
        back = load_checkpoint(p)
        assert back.reg_state.items_seen == 0
        assert back.reg_state.log_ema_per_topic.shape == (0,)

    def test_save_is_deterministic(self, tmp_path):
        cp = make_checkpoint()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, cp)
        save_checkpoint(b, cp)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, make_checkpoint())
        data = bytearray(p.read_bytes())
        data[0] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            load_checkpoint(p)

    def test_version_bump(self, tmp_path):
        # bytes 4-8 hold the format version as a little-endian uint32
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, make_checkpoint())
        data = bytearray(p.read_bytes())
        assert data[4:8] == struct.pack("<I", CHECKPOINT_VERSION)
        data[4:8] = struct.pack("<I", CHECKPOINT_VERSION + 1)
        p.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError, match="checkpoint version 2"):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, make_checkpoint())
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 16])
        with pytest.raises(IntegrityError):
            load_checkpoint(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, make_checkpoint())
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(IntegrityError):
            load_checkpoint(p)

    @pytest.mark.parametrize("make,edit", [
        (make_checkpoint, lambda m: m.pop("hyper")),
        (make_checkpoint, lambda m: m.pop("encoder")),
        (make_checkpoint, lambda m: m.pop("arrays")),
        (make_checkpoint, lambda m: m["hyper"].pop("n_iter")),
        (make_checkpoint, lambda m: m["regularizer"].pop("items_seen")),
        (make_checkpoint, lambda m: m["arrays"].pop(0)),  # the alpha entry
        (make_checkpoint, lambda m: m["arrays"][1].pop()),  # an entry without its shape
        (make_checkpoint, lambda m: m.update(encoder="mlp")),
        (make_checkpoint, lambda m: m["hyper"].update(lam="x")),
        # the (3, 6) table read as (6, 3): the bytes fit, the topics do not
        (lambda: make_checkpoint("table"), lambda m: m["arrays"][1][1].reverse()),
        # only the first layer kept: 5 outputs under a 3-topic alpha
        (make_checkpoint, lambda m: m["encoder"]["activations"].pop()),
        (make_checkpoint, lambda m: m["arrays"][2][1].append(1)),  # biases_0 read as (5, 1)
        (unchained_mlp, lambda m: None),
        (short_reg_ema, lambda m: None),
        # numbers must be JSON numbers: nothing is truncated or converted
        (make_checkpoint, lambda m: m["hyper"].update(n_iter=5.9)),
        (make_checkpoint, lambda m: m["hyper"].update(lam="2.5")),
        (make_checkpoint, lambda m: m["hyper"].update(gamma=False)),
        (make_checkpoint, lambda m: m["regularizer"].update(items_seen=True)),
        (lambda: make_checkpoint("table"), lambda m: m["arrays"][1].__setitem__(1, ["3", 6.0])),
    ], ids=["no-hyper", "no-encoder", "no-arrays", "no-n_iter", "no-items_seen",
            "no-alpha", "no-shape", "encoder-not-object", "lam-not-number",
            "table-rows-not-K", "mlp-outputs-not-K", "biases-not-vector",
            "layers-do-not-chain", "reg-ema-not-K", "n_iter-fraction", "lam-numeric-text",
            "gamma-boolean", "items_seen-boolean", "shape-not-integers"])
    def test_malformed_meta_is_integrity_error(self, tmp_path, save_with_meta, make, edit):
        p = tmp_path / "m.ckpt"
        save_with_meta(p, make(), edit)
        with pytest.raises(IntegrityError, match="malformed meta section"):
            load_checkpoint(p)

    def test_out_of_domain_meta_keeps_its_error(self, tmp_path, save_with_meta):
        p = tmp_path / "m.ckpt"
        save_with_meta(p, make_checkpoint(), lambda m: m["hyper"].update(lam=-1.0))
        with pytest.raises(DomainError, match=r"lam must be finite and lie in \[0, inf\)"):
            load_checkpoint(p)

    @pytest.mark.parametrize("entry", [6.0, True, "6"])
    def test_shape_entry_that_is_not_an_integer_is_named(self, tmp_path, save_with_meta, entry):
        p = tmp_path / "m.ckpt"
        save_with_meta(p, make_checkpoint("table"),
                       lambda m: m["arrays"][1].__setitem__(1, [3, entry]))
        with pytest.raises(IntegrityError, match=r"^malformed meta section: table shape must be "
                                                 rf"an integer, got {entry!r}$"):
            load_checkpoint(p)

    def test_fixed_loglik_table_must_be_row_stochastic(self, tmp_path, save_with_meta):
        p = tmp_path / "m.ckpt"
        hyper = HyperParams(alpha=np.ones(3))
        save_checkpoint(p, Checkpoint(hyper=hyper, params=EncoderParams(
            kind="fixed_loglik", table=np.full((3, 6), 1 / 6))))
        assert load_checkpoint(p).params.kind == "fixed_loglik"
        with pytest.raises(DomainError, match="each beta row must sum to 1"):
            EncoderParams(kind="fixed_loglik", table=np.full((3, 6), 0.2))
        # the same table saved as a trainable one, relabelled in the manifest
        save_with_meta(p, Checkpoint(hyper=hyper, params=EncoderParams(
            kind="table", table=np.full((3, 6), 0.2))),
            lambda m: m["encoder"].update(kind="fixed_loglik"))
        with pytest.raises(DomainError, match="each beta row must sum to 1"):
            load_checkpoint(p)

    def test_activations_preserved(self, tmp_path):
        rng = SeededRng(9)
        params = init_params("mlp", (3, 4, 4, 2), 0.5, rng, activations=("relu", "tanh", "linear"))
        cp = Checkpoint(hyper=HyperParams(alpha=np.ones(2)), params=params)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, cp)
        assert load_checkpoint(p).params.activations == ("relu", "tanh", "linear")


class TestCheckpointContract:
    """A Checkpoint refuses what load_checkpoint would refuse in the file
    that save_checkpoint writes from it."""

    @pytest.mark.parametrize("kind,edit,message,file_message", [
        ("mlp", lambda cp: cp.hyper.__setattr__("alpha", np.ones(2)),
         "the last MLP layer needs 2 outputs, one per topic in alpha", None),
        ("table", lambda cp: cp.hyper.__setattr__("alpha", np.ones(2)),
         r"table shape \(3, 6\) needs 2 rows, one per topic in alpha", None),
        ("mlp", lambda cp: cp.reg_state.__setattr__("log_ema_per_topic", np.zeros(2)),
         r"reg_log_ema shape \(2,\) after 128 items, for 3 topics", None),
        ("mlp", lambda cp: cp.reg_state.__setattr__("items_seen", 0),
         r"reg_log_ema shape \(3,\) after 0 items, for 3 topics", None),
        # the file keeps one layer per activation, so it reads a 1-layer mlp
        # with 5 outputs
        ("mlp", lambda cp: cp.params.__setattr__("activations", ("tanh",)),
         "one activation in", "the last MLP layer needs 3 outputs"),
        ("mlp", lambda cp: cp.params.__setattr__("activations", ("tanh", "gelu")),
         "one activation in", None),
        ("table", lambda cp: cp.params.__setattr__("kind", "lstm"),
         "unknown encoder kind 'lstm'", None),
    ], ids=["mlp-outputs-not-K", "table-rows-not-K", "reg-ema-not-K", "reg-ema-before-any-item",
            "fewer-activations", "unknown-activation", "unknown-kind"])
    def test_refuses_structure(self, tmp_path, kind, edit, message, file_message):
        # a fault edited into a built checkpoint is refused by the
        # constructor in memory, and by load_checkpoint in the saved file
        cp = make_checkpoint(kind)
        edit(cp)
        with pytest.raises(ContractError, match=message):
            Checkpoint(hyper=cp.hyper, params=cp.params, reg_state=cp.reg_state)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, cp)
        with pytest.raises(IntegrityError,
                           match="malformed meta section: .*" + (file_message or message)):
            load_checkpoint(p)

    @pytest.mark.parametrize("kind", ["mlp", "table"])
    def test_nan_parameters_are_refused_in_memory_and_on_load(self, tmp_path, kind):
        cp = make_checkpoint(kind)
        nan = cp.params.flat.copy()
        nan[-1] = np.nan
        # with_flat builds without the rules, so the checkpoint runs them
        with pytest.raises(DomainError, match=f"{kind} parameters must be finite"):
            Checkpoint(hyper=cp.hyper, params=cp.params.with_flat(nan))
        p = tmp_path / "m.ckpt"
        cp.params.flat[-1] = np.nan  # the arrays are views of flat
        save_checkpoint(p, cp)
        with pytest.raises(DomainError, match=f"{kind} parameters must be finite"):
            load_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_regularizer_state_is_refused(self, tmp_path, bad):
        cp = make_checkpoint()
        ema = cp.reg_state.log_ema_per_topic.copy()
        ema[1] = bad
        with pytest.raises(DomainError, match="reg_log_ema must be finite"):
            Checkpoint(hyper=cp.hyper, params=cp.params, reg_state=RegularizerState(
                rho=0.9, log_ema_per_topic=ema, items_seen=128))
        p = tmp_path / "m.ckpt"
        cp.reg_state.log_ema_per_topic = ema
        save_checkpoint(p, cp)
        with pytest.raises(DomainError, match="reg_log_ema must be finite"):
            load_checkpoint(p)

    def test_numpy_scalar_fields_save_and_load_back(self, tmp_path):
        # np.float32 lam and np.int64 counts used to reach the JSON writer
        # and escape save_checkpoint as an untyped TypeError
        cp = make_checkpoint()
        hyper = HyperParams(alpha=cp.hyper.alpha, lam=np.float32(1.5), gamma=np.float64(0.25),
                            n_iter=np.int64(4), rho=np.float32(0.5))
        reg = RegularizerState(rho=np.float32(0.75), log_ema_per_topic=np.zeros(3),
                               items_seen=np.int64(128))
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, Checkpoint(hyper=hyper, params=cp.params, reg_state=reg))
        back = load_checkpoint(p)
        assert (back.hyper.lam, back.hyper.gamma, back.hyper.n_iter, back.hyper.rho) == (
            1.5, 0.25, 4, 0.5)
        assert (back.reg_state.rho, back.reg_state.items_seen) == (0.75, 128)

    @pytest.mark.parametrize("seen", [-3, 1.5])
    def test_items_seen_that_would_not_load_back_is_refused(self, tmp_path, save_with_meta,
                                                            seen):
        # -3 used to load back as -3, and 1.5 as 1
        with pytest.raises(ContractError, match="items_seen must be"):
            RegularizerState(rho=0.9, log_ema_per_topic=np.zeros(3), items_seen=seen)
        p = tmp_path / "m.ckpt"
        save_with_meta(p, make_checkpoint(), lambda m: m["regularizer"].update(items_seen=seen))
        with pytest.raises(IntegrityError, match="malformed meta section: items_seen must be"):
            load_checkpoint(p)

    def test_fractional_n_iter_is_refused_before_it_is_saved(self):
        # HyperParams(n_iter=2.5) used to construct, save, and then not load
        with pytest.raises(ContractError, match="n_iter must be an integer, got 2.5"):
            Checkpoint(hyper=HyperParams(alpha=np.ones(3), n_iter=2.5),
                       params=make_checkpoint().params)

    @pytest.mark.parametrize("provenance", [{"seed": np.int64(1)}, {"tags": {1, 2}},
                                            {"path": Path("x")}, {1j: 0}],
                             ids=["numpy-int", "set", "path", "complex-key"])
    def test_provenance_json_cannot_encode_is_refused(self, tmp_path, provenance):
        cp = make_checkpoint()
        with pytest.raises(ContractError, match="provenance must be JSON-encodable"):
            Checkpoint(hyper=cp.hyper, params=cp.params, provenance=provenance)

    @pytest.mark.parametrize("provenance", [{1: "x"}, {"t": (1, 2)}, {"x": float("nan")},
                                            {"n": {None: 1}}],
                             ids=["integer-key", "tuple", "nan", "none-key"])
    def test_provenance_that_json_does_not_give_back_is_refused(self, provenance):
        # {1: "x", "t": (1, 2)} used to save and load back as {"1": "x", "t": [1, 2]}
        cp = make_checkpoint()
        with pytest.raises(ContractError, match="provenance must load back from JSON unchanged"):
            Checkpoint(hyper=cp.hyper, params=cp.params, provenance=provenance)

    def test_circular_provenance_is_refused(self):
        cp, loop = make_checkpoint(), {}
        loop["self"] = loop
        with pytest.raises(ContractError, match="provenance must be JSON-encodable"):
            Checkpoint(hyper=cp.hyper, params=cp.params, provenance=loop)

    def test_no_version_field(self, tmp_path):
        # save_checkpoint writes the one version this build reads
        with pytest.raises(TypeError):
            Checkpoint(hyper=HyperParams(alpha=np.ones(3)), params=make_checkpoint().params,
                       version=2)
        cp = make_checkpoint()
        assert not hasattr(cp, "version")
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, cp)
        assert p.read_bytes()[4:8] == struct.pack("<I", CHECKPOINT_VERSION)

    @pytest.mark.parametrize("kind,fault", [
        (kind, fault)
        for kind, own in [("mlp", ["outputs", "chain", "bias", "activation", "activation-count",
                                   "with-flat"]),
                          ("table", ["rows", "1-D", "with-flat"]),
                          ("fixed_loglik", ["rows", "1-D", "row-sum"])]  # beta has no flat
        for fault in [None, *own, "kind", "entry", "reg-length", "reg-entry"]
    ])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_checkpoint_that_constructs_loads_back_bitwise(self, tmp_path_factory, kind,
                                                                 fault, data):
        # each draw builds a random checkpoint with at most one spoiled part;
        # a spoiled one raises its fault's typed error, and every other one
        # saves a file that loads back to the same bytes
        non_finite = st.sampled_from([np.nan, np.inf, -np.inf])

        def pick(n):
            return data.draw(st.integers(0, n - 1))

        def floats(shape, lo=None, hi=None):
            n = int(np.prod(shape))
            cells = data.draw(st.lists(st.floats(lo, hi, allow_nan=False, allow_infinity=False),
                                       min_size=n, max_size=n))
            return np.array(cells, dtype=np.float64).reshape(shape)

        k = data.draw(st.integers(1, 3))
        if kind == "mlp":
            n_layers = data.draw(st.integers(2 if fault == "chain" else 1, 3))
            dims = [data.draw(st.integers(1, 3)) for _ in range(n_layers)]
            dims.append(k + (fault == "outputs"))
            weights = [floats((out, fan_in)) for fan_in, out in zip(dims, dims[1:])]
            biases = [floats((out,)) for out in dims[1:]]
            if fault == "chain":
                weights[-1] = floats((dims[-1], dims[-2] + 1))
            if fault == "bias":
                layer = pick(n_layers)
                biases[layer] = floats((dims[layer + 1] + 1,))
            if fault == "entry":
                spoiled = data.draw(st.sampled_from(weights + biases))
                spoiled.flat[pick(spoiled.size)] = data.draw(non_finite)
            acts = data.draw(st.lists(st.sampled_from(["tanh", "relu", "linear"]),
                                      min_size=n_layers, max_size=n_layers))
            if fault == "activation":
                acts[pick(n_layers)] = "gelu"
            if fault == "activation-count":
                acts.pop()
            arrays = dict(weights=tuple(weights), biases=tuple(biases), activations=tuple(acts))
        else:
            shape = (k + (fault == "rows"), data.draw(st.integers(1, 4)))
            table = floats(shape) if kind == "table" else floats(shape, 0.01, 1.0)
            if kind == "fixed_loglik":
                table /= table.sum(axis=1, keepdims=True)
            if fault == "row-sum":
                table[pick(shape[0])] *= 2.0
            if fault == "entry":
                table.flat[pick(table.size)] = data.draw(non_finite | st.just(-0.25)
                                                         if kind == "fixed_loglik" else non_finite)
            arrays = dict(table=table.ravel() if fault == "1-D" else table)
        reg = None
        if fault in ("reg-length", "reg-entry") or data.draw(st.booleans()):
            seen = 1000 if fault == "reg-entry" else data.draw(st.sampled_from([0, 64, 1000]))
            ema = floats(((k if seen else 0) + (fault == "reg-length"),))
            if fault == "reg-entry":
                ema[pick(k)] = data.draw(non_finite)
            reg = RegularizerState(rho=data.draw(st.floats(0.0, 0.99)), log_ema_per_topic=ema,
                                   items_seen=seen)
        hyper = HyperParams(alpha=floats((k,), 0.01, 10.0), lam=data.draw(st.floats(0.0, 5.0)),
                            gamma=data.draw(st.floats(0.0, 100.0)),
                            n_iter=data.draw(st.integers(1, 8)),
                            rho=data.draw(st.floats(0.0, 0.99)))
        domain = fault in ("entry", "reg-entry", "row-sum", "with-flat")
        try:
            params = EncoderParams(kind="lstm" if fault == "kind" else kind, **arrays)
            if fault == "with-flat":
                flat = params.flat.copy()
                flat[pick(flat.size)] = np.nan
                params = params.with_flat(flat)
            cp = Checkpoint(hyper=hyper, params=params, reg_state=reg,
                            provenance={"seed": data.draw(st.integers(0, 99))})
        except (ContractError, DomainError) as exc:
            assert fault is not None
            assert type(exc) is (DomainError if domain else ContractError), (fault, exc)
            return
        assert fault is None
        p = tmp_path_factory.getbasetemp() / "constructed.ckpt"
        save_checkpoint(p, cp)
        saved = p.read_bytes()
        back = load_checkpoint(p)
        assert (back.params.kind, back.params.activations) == (kind, params.activations)
        assert back.params.flat.tobytes() == params.flat.tobytes()
        if kind != "mlp":
            assert back.params.table.tobytes() == params.table.tobytes()
        assert back.hyper.alpha.tobytes() == hyper.alpha.tobytes()
        save_checkpoint(p, back)
        assert p.read_bytes() == saved


class TestPredictions:
    def test_zero_groups_refused(self, tmp_path):
        # a header-only file would break the reader's rule of at least one
        # group, so the writer refuses it and leaves the target as it was
        p = tmp_path / "pred.jsonl"
        write_predictions(p, ["a"], [1], np.array([[0.25, 0.75]]), np.array([[0.5, 0.5]]),
                          [0, 1])
        with pytest.raises(ContractError, match="one or more groups"):
            write_predictions(p, [], np.zeros(0, dtype=int), np.zeros((0, 2)),
                              np.zeros((0, 2)), np.zeros(1, dtype=int))
        ids, labels, p_label, p_items = read_predictions(p)
        assert ids == ["a"] and labels.tolist() == [1]
        assert p_label.tolist() == [[0.25, 0.75]] and p_items[0].tolist() == [[0.5, 0.5]]

    def test_six_decimal_places_and_near_simplex(self, tmp_path):
        p = tmp_path / "pred.jsonl"
        p_label = np.array([[1 / 3, 1 / 3, 1 / 3], [0.7310586, 0.1, 0.1689414]])
        p_items = np.array([[0.25, 0.5, 0.25], [1 / 3, 1 / 3, 1 / 3], [0.9, 0.05, 0.05]])
        write_predictions(p, ["a", "b"], [2, 0], p_label, p_items, [0, 1, 3])
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 3
        for raw in lines[1:]:
            rec = json.loads(raw)
            for row in [rec["p_label"]] + rec["p_items"]:
                assert abs(sum(row) - 1.0) <= 5e-6
        assert '"p_label":[0.333333,0.333333,0.333333]' in lines[1]
        assert '0.731059' in lines[2]

    def test_rows_format_as_fixed_six_decimals(self, tmp_path):
        # values that round up, round half-even at the 7th decimal, underflow
        # to zero or carry a sign, formatted as f"{x:.6f}" formats them
        values = np.array([0.0, -0.0, 1.0, 1 / 3, 2 / 3, 0.9999995, 0.0000005, 0.0000015,
                           5e-324, 1e-7, 0.1234565, 0.7310585786300049])
        p_items = values.reshape(4, 3)
        p_label = p_items[[0, 3]]
        p = tmp_path / "pred.jsonl"
        write_predictions(p, ["a", "b"], [0, 1], p_label, p_items, [0, 1, 4])

        def row(r):
            return "[" + ",".join(f"{x:.6f}" for x in r) + "]"

        lines = p.read_text().splitlines()
        assert lines[1] == (f'{{"id":"a","label":0,"p_label":{row(p_label[0])},'
                            f'"p_items":[{row(p_items[0])}]}}')
        assert lines[2] == (f'{{"id":"b","label":1,"p_label":{row(p_label[1])},'
                            f'"p_items":[{",".join(row(r) for r in p_items[1:])}]}}')
        assert '"p_label":[0.000000,-0.000000,1.000000]' in lines[1]

    def test_deterministic_bytes(self, tmp_path):
        rng = SeededRng(11)
        p_label = rng.gen.dirichlet(np.ones(3), size=4)
        p_items = rng.gen.dirichlet(np.ones(3), size=9)
        offsets = np.array([0, 2, 4, 7, 9])
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            write_predictions(path, list("wxyz"), [0, 1, 2, 0], p_label, p_items, offsets)
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "pred.jsonl"
        p_label = np.array([[0.25, 0.75]])
        p_items = np.array([[0.5, 0.5], [0.125, 0.875]])
        write_predictions(p, ["g0"], [1], p_label, p_items, [0, 2])
        ids, labels, pl, pi = read_predictions(p)
        assert ids == ["g0"]
        np.testing.assert_array_equal(labels, [1])
        np.testing.assert_allclose(pl, p_label, atol=5e-7)
        np.testing.assert_allclose(pi[0], p_items, atol=5e-7)

    @pytest.mark.parametrize("lines,message", [
        (['["predictions"]'], "line 1: header must be an object"),
        ([PRED_HEADER, '{"label":0,"p_label":[0.5,0.5],"p_items":[[0.5,0.5]]}'],
         "line 2: group id must be a non-empty string"),
        ([PRED_HEADER, '{"id":"a","label":"x","p_label":[0.5,0.5],"p_items":[[0.5,0.5]]}'],
         "line 2: label 'x' is not an integer"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_items":[[0.5,0.5]]}'],
         "line 2: p_label must be 2 numbers"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[0.5,0.5]}'],
         "line 2: p_items must be rows of 2 numbers"),
        (['{"format":"predictions","version":7,"k":2}',
          '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[[0.5,0.5]]}'],
         "line 1: unsupported predictions version 7"),
        (['{"format":"predictions","version":true,"k":2}',
          '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[[0.5,0.5]]}'],
         "line 1: unsupported predictions version True"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":["0.5",0.5],"p_items":[[0.5,0.5]]}'],
         "line 2: p_label must be 2 numbers"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":[true,0],"p_items":[[0.5,0.5]]}'],
         "line 2: p_label must be 2 numbers"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":[NaN,0.5],"p_items":[[0.5,0.5]]}'],
         "line 2: p_label must be 2 numbers"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[[0.5,"0.5"]]}'],
         "line 2: p_items must be rows of 2 numbers"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[[false,1]]}'],
         "line 2: p_items must be rows of 2 numbers"),
        ([PRED_HEADER, '{"id":"a","label":0,"p_label":[0.5,0.5],"p_items":[[-Infinity,1]]}'],
         "line 2: p_items must be rows of 2 numbers"),
        ([PRED_HEADER, PRED_RECORD, "", PRED_RECORD], "line 3: blank line"),
        ([PRED_HEADER, PRED_RECORD.replace('"a"', '""')],
         "line 2: group id must be a non-empty string"),
        ([PRED_HEADER], "line 2: predictions has no groups"),
    ], ids=["header-not-object", "no-id", "label-text", "no-p_label", "flat-p_items",
            "future-version", "boolean-version", "p_label-numeric-text", "p_label-boolean",
            "p_label-nan", "p_items-numeric-text", "p_items-boolean", "p_items-infinity",
            "blank-line", "empty-id", "header-only"])
    def test_malformed_is_format_error(self, tmp_path, lines, message):
        p = tmp_path / "pred.jsonl"
        write_lines(p, lines)
        with pytest.raises(CorpusFormatError, match=message):
            read_predictions(p)

    def test_offsets_mismatch_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_predictions(tmp_path / "x", ["a"], [0], np.ones((1, 2)),
                              np.ones((3, 2)), [0, 2])

    @pytest.mark.parametrize("p_label,p_items", [
        (np.full((1, 2), 0.5), np.full((1, 3), 1 / 3)),
        (np.full((1, 3), 1 / 3), np.full((1, 2), 0.5)),
        (np.full((1, 2), 0.5), np.full(1, 0.5)),
    ], ids=["wider-items", "narrower-items", "flat-items"])
    def test_item_width_must_match_label_width(self, tmp_path, p_label, p_items):
        # the header announces k = p_label's width, and the reader holds
        # every p_items row to it
        p = tmp_path / "pred.jsonl"
        with pytest.raises(ContractError, match="one column per column of p_label"):
            write_predictions(p, ["a"], [0], p_label, p_items, [0, 1])
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["p_label", "p_items"])
    def test_non_finite_probabilities_refused(self, tmp_path, where, bad):
        # NaN would be written as a bare NaN token, which the reader
        # refuses as invalid JSON
        probs = {"p_label": np.full((1, 2), 0.5), "p_items": np.full((2, 2), 0.5)}
        probs[where][0, 1] = bad
        p = tmp_path / "pred.jsonl"
        with pytest.raises(ContractError, match="p_label and p_items must be finite"):
            write_predictions(p, ["a"], [0], probs["p_label"], probs["p_items"], [0, 2])
        assert not p.exists()

    @pytest.mark.parametrize("gid", ["", 5, None, b"a"], ids=["empty", "int", "none", "bytes"])
    def test_ids_must_be_non_empty_strings(self, tmp_path, gid):
        p = tmp_path / "pred.jsonl"
        with pytest.raises(ContractError, match="ids must be non-empty strings"):
            write_predictions(p, ["a", gid], [0, 1], np.full((2, 2), 0.5), np.full((2, 2), 0.5),
                              [0, 1, 2])
        assert not p.exists()

    def test_no_tmp_file_left_behind(self, tmp_path):
        p = tmp_path / "pred.jsonl"
        write_predictions(p, ["a"], [0], np.ones((1, 1)), np.ones((1, 1)), [0, 1])
        assert [f.name for f in tmp_path.iterdir()] == ["pred.jsonl"]

    def test_failed_replace_keeps_target_and_removes_tmp(self, tmp_path, monkeypatch):
        p = tmp_path / "pred.jsonl"
        p.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_predictions(p, ["a"], [0], np.ones((1, 1)), np.ones((1, 1)), [0, 1])
        assert p.read_bytes() == b"old"
        assert [f.name for f in tmp_path.iterdir()] == ["pred.jsonl"]

    def test_written_file_has_the_umask_mode(self, tmp_path):
        p = tmp_path / "pred.jsonl"
        write_predictions(p, ["a"], [0], np.ones((1, 1)), np.ones((1, 1)), [0, 1])
        umask = os.umask(0)
        os.umask(umask)
        assert p.stat().st_mode & 0o777 == 0o666 & ~umask


class TestDenseVersion2:
    """save_corpus writes dense corpora as version 2 (base64 rows) and token
    corpora as version 1; load_corpus reads both versions."""

    def test_save_writes_dense_rows_as_base64(self, tmp_path):
        rows = np.array([[0.1, -0.0], [1e-310, -2.5], [3.0, 7e300]])
        flat = _flat(rows, [0, 1, 3], [1, -1], ["a", "b"])
        p = tmp_path / "d.jsonl"
        save_corpus(p, Corpus(num_topics=2, payload=PayloadSpec("dense", 2), flat=flat))
        header, *lines = p.read_text().splitlines()
        assert header == '{"format":"corpus","version":2,"k":2,"payload":{"dense":2}}'
        assert lines == ['{"id":"a","items":"%s","label":1}' % _b64(rows[:1]),
                         '{"id":"b","items":"%s"}' % _b64(rows[1:])]

    def test_token_corpus_stays_version_1(self, tmp_path):
        p = tmp_path / "t.jsonl"
        save_corpus(p, Corpus(num_topics=3, payload=PayloadSpec("token", 5),
                              flat=_flat([0, 4, 2], [0, 2, 3], [0, -1], ["a", "b"])))
        assert p.read_text().splitlines() == [TOKEN_HEADER, '{"id":"a","items":[0,4],"label":0}',
                                              '{"id":"b","items":[2]}']

    @pytest.mark.parametrize("seed", range(3))
    def test_saved_and_hand_written_version_1_load_bitwise_equal(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(scale=10.0 ** rng.integers(-300, 300, size=(13, 1)), size=(13, 3))
        rows[0, 0], rows[-1, -1] = -0.0, 5e-324
        flat = _flat(rows, [0, 1, 6, 13], [2, -1, 0], ["g0", "g1", "g2"])
        v1 = tmp_path / "v1.jsonl"
        write_lines(v1, [json.dumps({"format": "corpus", "version": 1, "k": 3,
                                     "payload": {"dense": 3}})]
                    + [json.dumps({"id": gid, "items": rows[lo:hi].tolist(),
                                   **({"label": int(lab)} if lab >= 0 else {})})
                       for gid, lo, hi, lab in zip(flat.ids, flat.offsets, flat.offsets[1:],
                                                   flat.labels)])
        v2 = tmp_path / "v2.jsonl"
        save_corpus(v2, Corpus(num_topics=3, payload=PayloadSpec("dense", 3), flat=flat))
        assert json.loads(v2.read_text().splitlines()[0])["version"] == 2
        a, b = load_corpus(v1), load_corpus(v2)
        assert (a.num_topics, a.payload, a.vocab) == (b.num_topics, b.payload, b.vocab)
        assert a.flat.ids == b.flat.ids == flat.ids
        for name in ("payload", "offsets", "labels"):
            x, y = getattr(a.flat, name), getattr(b.flat, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert b.flat.payload.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("case", sorted(BROKEN_V2))
    def test_malformed_line_is_format_error(self, tmp_path, case):
        line, message = BROKEN_V2[case]
        p = tmp_path / "d.jsonl"
        write_lines(p, [DENSE2_HEADER, '{"id":"ok","items":"%s"}' % _b64([[0.5, 1.5]]), line])
        with pytest.raises(CorpusFormatError, match="^line 3: " + message + "$"):
            load_corpus(p)

    @pytest.mark.parametrize("lines,loader,fmt", [
        (['{"format":"corpus-truth","version":2,"k":2}', TRUTH_RECORD], load_truth,
         "corpus-truth"),
        (['{"format":"predictions","version":2,"k":2}', PRED_RECORD], read_predictions,
         "predictions"),
        (['{"format":"corpus","version":3,"k":2,"payload":{"dense":2}}',
          '{"id":"a","items":"%s"}' % _b64([[0.5, 1.5]])], load_corpus, "corpus"),
    ], ids=["truth", "predictions", "corpus-v3"])
    def test_unsupported_versions_refused(self, tmp_path, lines, loader, fmt):
        p = tmp_path / "x.jsonl"
        write_lines(p, lines)
        v = json.loads(lines[0])["version"]
        with pytest.raises(CorpusFormatError, match=f"^line 1: unsupported {fmt} version {v}$"):
            loader(p)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A 20-group token corpus, its truth sidecar, predictions for it, a
    checkpoint and a dense corpus (version 2), each written by the
    package's own writers."""
    d = tmp_path_factory.mktemp("valid")
    groups, truth = generate_corpus(3, 9, 20, 6, np.full(3, 0.5),
                                    np.full((3, 9), 1 / 9), SeededRng(4), labeled=True)
    corpus = corpus_from_groups(groups, 3, vocab_size=9)
    save_corpus(d / "c.jsonl", corpus)
    save_truth(d / "c.truth", corpus, truth)
    p_items = np.full((120, 3), 1 / 3)
    write_predictions(d / "p.jsonl", [g.id for g in groups], truth.labels, truth.pi,
                      p_items, np.arange(0, 121, 6))
    save_checkpoint(d / "m.ckpt", make_checkpoint("table"))
    rows = SeededRng(5).gen.normal(size=(120, 3))
    save_corpus(d / "d.jsonl", Corpus(num_topics=3, payload=PayloadSpec("dense", 3),
                                      flat=_flat(rows, np.arange(0, 121, 6), truth.labels,
                                                 [g.id for g in groups])))
    return {name: (d / name).read_bytes()
            for name in ("c.jsonl", "c.truth", "p.jsonl", "m.ckpt", "d.jsonl")}


# each loader with the errors it may raise on bad bytes: the ones the CLI
# reports as data errors, never a bare ValueError or RecursionError
LOADERS = {
    "c.jsonl": (load_corpus, (CorpusFormatError,)),
    "d.jsonl": (load_corpus, (CorpusFormatError,)),
    "c.truth": (load_truth, (CorpusFormatError,)),
    "p.jsonl": (read_predictions, (CorpusFormatError,)),
    "m.ckpt": (load_checkpoint, (CheckpointError, ContractError, DomainError)),
}


class TestWritersLeaveTheUmask:
    def test_rewrites_are_the_same_bytes_without_umask_or_chmod(self, tmp_path, monkeypatch,
                                                               valid_files):
        """Each writer, given what its reader took from a file the writers
        made, writes that file's bytes again, with the mode open() gives,
        while os.umask and os.chmod raise: the kernel applies the umask."""
        umask = os.umask(0)
        os.umask(umask)
        for name, data in valid_files.items():
            (tmp_path / name).write_bytes(data)
        corpus, dense = load_corpus(tmp_path / "c.jsonl"), load_corpus(tmp_path / "d.jsonl")
        _, pi, z, labels = load_truth(tmp_path / "c.truth")
        ids, pred_labels, p_label, p_items = read_predictions(tmp_path / "p.jsonl")
        offsets = np.cumsum([0] + [len(p) for p in p_items])
        cp = load_checkpoint(tmp_path / "m.ckpt")
        writes = {
            "c.jsonl": lambda p: save_corpus(p, corpus),
            "d.jsonl": lambda p: save_corpus(p, dense),
            "c.truth": lambda p: save_truth(p, corpus, CorpusTruth(pi=pi, z=z, labels=labels)),
            "p.jsonl": lambda p: write_predictions(p, ids, pred_labels, p_label,
                                                   np.concatenate(p_items), offsets),
            "m.ckpt": lambda p: save_checkpoint(p, cp),
        }

        def refuse(*args):
            raise AssertionError("a writer called os.umask or os.chmod")

        monkeypatch.setattr(os, "umask", refuse)
        monkeypatch.setattr(os, "chmod", refuse)
        out = tmp_path / "out"
        out.mkdir()
        for name, write in writes.items():
            write(out / name)
            assert (out / name).read_bytes() == valid_files[name], name
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name
        assert sorted(f.name for f in out.iterdir()) == sorted(valid_files)


class TestCorruptInput:
    @pytest.mark.parametrize("name", sorted(LOADERS))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_byte_corruption_raises_only_typed_errors(self, tmp_path_factory, valid_files,
                                                      name, data):
        raw = bytearray(valid_files[name])
        for _ in range(data.draw(st.integers(1, 3))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path = tmp_path_factory.getbasetemp() / f"corrupt-{name}"
        path.write_bytes(bytes(raw))
        loader, typed = LOADERS[name]
        try:
            loader(path)
        except typed:
            pass

    @pytest.mark.parametrize("name,line", [("c.jsonl", 3), ("c.truth", 2), ("p.jsonl", 4)])
    def test_non_utf8_names_its_line(self, tmp_path, valid_files, name, line):
        lines = valid_files[name].split(b"\n")
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][6:]
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusFormatError, match=f"line {line}: not UTF-8"):
            LOADERS[name][0](path)

    @pytest.mark.parametrize("name", ["c.jsonl", "c.truth", "p.jsonl"])
    def test_deep_nesting_is_format_error(self, tmp_path, valid_files, name):
        header = valid_files[name].split(b"\n")[0]
        path = tmp_path / name
        path.write_bytes(header + b"\n" + b"[" * 200_000 + b"\n")
        with pytest.raises(CorpusFormatError, match="line 2: unreadable JSON"):
            LOADERS[name][0](path)

    @pytest.mark.parametrize("items", ['[["a","b"]]', "[[[1],[2,3]]]", '[["1.5",2]]',
                                       "[[true,1.0]]", "[[1" + "0" * 400 + ",1]]"],
                             ids=["text", "ragged", "numeric-text", "boolean", "huge-integer"])
    def test_dense_item_not_numbers_is_format_error(self, tmp_path, items):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"format":"corpus","version":1,"k":2,"payload":{"dense":2}}',
                        '{"id":"a","items":' + items + '}'])
        with pytest.raises(CorpusFormatError, match="line 2: item 0: expected 2 floats"):
            load_corpus(p)

    def test_non_utf8_section_name_is_integrity_error(self, tmp_path, valid_files):
        raw = bytearray(valid_files["m.ckpt"])
        # magic, version and section count, then the first name's length and bytes
        assert raw[16:20] == b"meta"
        raw[16:20] = b"\xff\xfe\xfd\xfc"
        path = tmp_path / "m.ckpt"
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="not UTF-8"):
            load_checkpoint(path)


# byte pieces the streaming reader must split at \n, or refuse, exactly as
# the whole-file read does: \n, \r\n and every other str.splitlines
# separator (which split nothing), characters of each UTF-8 length,
# sequences cut short, and bytes that start none
LINE_PIECES = [b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
               "\x85".encode(), "\u2028".encode(), "\u2029".encode(),
               b"a", b" ", "\u00e9".encode(), "\u20ac".encode(), "\U0001f600".encode(),
               b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\x85", b"\xff"]


def _streamed_lines(path):
    with open(path, "rb") as fh:
        return list(_read_lines(fh))


def _whole_file_lines(path):
    return list(reference_read_lines(path))


class TestStreamingReader:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(pieces=st.lists(st.sampled_from(LINE_PIECES) | st.binary(max_size=3), max_size=40))
    def test_same_lines_as_the_whole_file(self, tmp_path_factory, pieces):
        path = tmp_path_factory.getbasetemp() / "lines.txt"
        path.write_bytes(b"".join(pieces))
        assert _outcome(_streamed_lines, path) == _outcome(_whole_file_lines, path)

    @pytest.mark.parametrize("cut", [b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"])
    @pytest.mark.parametrize("tail", [b"\nmore\n", b"\r\n", b""],
                             ids=["line-end", "crlf", "eof"])
    def test_character_cut_short(self, tmp_path, cut, tail):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"ok\r\n\x85x" + cut + tail)
        got = _outcome(_streamed_lines, path)
        assert got == _outcome(_whole_file_lines, path)
        assert got[0] is CorpusFormatError and got[1].startswith("line 2: not UTF-8 text")

    @pytest.mark.parametrize("name", ["c.jsonl", "d.jsonl", "c.truth", "p.jsonl"])
    @pytest.mark.parametrize("fault", ["header", "json", "record"])
    def test_earlier_fault_beats_later_utf8_fault(self, tmp_path, valid_files, name, fault):
        lines = valid_files[name].split(b"\n")
        if fault == "header":
            lines[0] = b'{"format":"nothing","version":1,"k":2}'
            want = "^line 1: expected format"
        elif fault == "json":
            lines[1] = b"{" + lines[1]
            want = "^line 2: invalid JSON"
        else:
            lines[2] = b'{"id":""}'
            want = "^line 3: group id must be a non-empty string"
        lines[4] = lines[4][:5] + b"\xff" + lines[4][6:]
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusFormatError, match=want):
            LOADERS[name][0](path)

    @pytest.mark.parametrize("name", ["c.jsonl", "d.jsonl", "c.truth", "p.jsonl"])
    def test_first_utf8_fault_is_named(self, tmp_path, valid_files, name):
        lines = valid_files[name].split(b"\n")
        for i in (2, 4):
            lines[i] = lines[i][:5] + b"\xff" + lines[i][6:]
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusFormatError, match="^line 3: not UTF-8 text"):
            LOADERS[name][0](path)


def _as_plain(loaded):
    """A loader's result as nested lists of plain values and array bytes."""
    if isinstance(loaded, Corpus):
        flat = loaded.flat
        loaded = (loaded.num_topics, loaded.payload, loaded.vocab, flat.ids, flat.payload,
                  flat.offsets, flat.labels)
    if isinstance(loaded, np.ndarray):
        return loaded.dtype.str, loaded.shape, loaded.tobytes()
    if isinstance(loaded, (list, tuple)):
        return [_as_plain(x) for x in loaded]
    return loaded


# str.splitlines separators that JSON Lines leaves inside a line
SEPARATORS = {"u2028": "\u2028", "u2029": "\u2029", "u0085": "\x85"}


class TestLineEnds:
    """A line ends at \n and nothing else, as in JSON Lines, so every kind
    of fault on a line is reported with the same line number."""

    @pytest.mark.parametrize("name", ["c.jsonl", "c.truth", "p.jsonl"])
    @pytest.mark.parametrize("sep", sorted(SEPARATORS))
    def test_raw_separator_in_a_string_stays_in_it(self, tmp_path, valid_files, name, sep):
        """A file written with ensure_ascii=False, the separator raw in every
        id (and in a corpus's every vocab word), loads to what its
        ensure_ascii=True twin loads to."""
        ch = SEPARATORS[sep]
        header, *records = map(json.loads, valid_files[name].splitlines())
        if name == "c.jsonl":
            header["vocab"] = [f"w{ch}{v}" for v in range(header["payload"]["token"])]
        for rec in records:
            rec["id"] += ch + "x"
        loaded = []
        for ascii_only in (True, False):
            path = tmp_path / f"{ascii_only}-{name}"
            path.write_text("".join(json.dumps(rec, ensure_ascii=ascii_only) + "\n"
                                    for rec in (header, *records)), encoding="utf-8")
            loaded.append(LOADERS[name][0](path))
        assert ch.encode("utf-8") in path.read_bytes()
        ids = loaded[1].flat.ids if name == "c.jsonl" else loaded[1][0]
        assert ids == [rec["id"] for rec in records]
        assert _as_plain(loaded[1]) == _as_plain(loaded[0])

    @pytest.mark.parametrize("sep", sorted(SEPARATORS))
    def test_records_joined_by_a_separator_are_one_bad_line(self, tmp_path, sep):
        p = tmp_path / "c.jsonl"
        write_lines(p, [HEADER, '{"id":"a","items":[0]}' + SEPARATORS[sep]
                        + '{"id":"b","items":[1]}'])
        with pytest.raises(CorpusFormatError, match=r"^line 2: invalid JSON \(Extra data\)"):
            load_corpus(p)

    @pytest.mark.parametrize("fault,want", [
        (b'{"id":"c","items":[9]}', "item 0: token 9 not in"),
        (b'{"id":"\xff","items":[0]}', "not UTF-8 text"),
    ], ids=["range", "utf8"])
    def test_fault_kinds_agree_on_the_line(self, tmp_path, fault, want):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b"\n".join([HEADER.encode(), '{"id":"a\x85b","items":[0]}'.encode(),
                                  fault, b""]))
        with pytest.raises(CorpusFormatError, match=f"^line 3: {want}"):
            load_corpus(p)

    @pytest.mark.parametrize("name", ["c.jsonl", "d.jsonl", "c.truth", "p.jsonl"])
    def test_crlf_copy_loads_as_the_lf_file(self, tmp_path, valid_files, name):
        lf, crlf = tmp_path / f"lf-{name}", tmp_path / f"crlf-{name}"
        lf.write_bytes(valid_files[name])
        crlf.write_bytes(valid_files[name].replace(b"\n", b"\r\n"))
        loader = LOADERS[name][0]
        assert _as_plain(loader(crlf)) == _as_plain(loader(lf))

class TestLoadMemory:
    @pytest.mark.parametrize("version", [1, 2])
    def test_loading_holds_one_copy_of_the_floats(self, tmp_path, version):
        """The loader's traced peak, the corpus it returns included, stays
        within half a payload of the payload itself."""
        rows = SeededRng(6).gen.normal(size=(4000, 16))
        offsets = np.arange(0, 4001, 20)
        ids = [f"g{d}" for d in range(200)]
        path = tmp_path / "d.jsonl"
        if version == 2:
            save_corpus(path, Corpus(num_topics=3, payload=PayloadSpec("dense", 16),
                                     flat=_flat(rows, offsets, np.full(200, -1), ids)))
        else:
            write_lines(path, ['{"format":"corpus","version":1,"k":3,"payload":{"dense":16}}']
                        + [json.dumps({"id": gid, "items": rows[lo:hi].tolist()})
                           for gid, lo, hi in zip(ids, offsets, offsets[1:])])
        load_corpus(path)  # the first load fills the parser's one-time caches
        tracemalloc.start()
        try:
            payload = load_corpus(path).flat.payload
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload.tobytes() == rows.tobytes()
        assert peak <= 1.5 * payload.nbytes, peak / payload.nbytes


class TestWriteMemory:
    """The writers stream their lines into the file: the traced peak stays
    under a quarter of the bytes written."""

    @staticmethod
    def traced_peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["dense", "token"])
    def test_save_corpus(self, tmp_path, kind):
        rng = SeededRng(8).gen
        if kind == "dense":
            offsets = np.arange(0, 8001, 20)
            payload, spec = rng.normal(size=(8000, 16)), PayloadSpec("dense", 16)
        else:
            offsets = np.arange(0, 80001, 200)
            payload, spec = rng.integers(0, 1000, size=80000), PayloadSpec("token", 1000)
        corpus = Corpus(num_topics=3, payload=spec,
                        flat=_flat(payload, offsets, np.full(400, 1), [f"g{d}" for d in range(400)]))
        path = tmp_path / "c.jsonl"
        save_corpus(path, corpus)  # the first write fills the encoder's one-time caches
        peak = self.traced_peak(lambda: save_corpus(path, corpus))
        assert peak < path.stat().st_size / 4, peak / path.stat().st_size
        np.testing.assert_array_equal(load_corpus(path).flat.payload, payload)

    def test_write_predictions(self, tmp_path):
        rng = SeededRng(9).gen
        offsets = np.arange(0, 8001, 20)
        ids, labels = [f"g{d}" for d in range(400)], np.zeros(400, dtype=np.int64)
        p_label, p_items = rng.dirichlet(np.ones(5), 400), rng.dirichlet(np.ones(5), 8000)
        path = tmp_path / "p.jsonl"
        write_predictions(path, ids, labels, p_label, p_items, offsets)
        peak = self.traced_peak(
            lambda: write_predictions(path, ids, labels, p_label, p_items, offsets))
        assert peak < path.stat().st_size / 4, peak / path.stat().st_size
        assert read_predictions(path)[0] == ids
