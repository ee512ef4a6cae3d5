import json

import pytest

from framedskein.corpus import (
    DEFAULT_SEED,
    generate_corpus,
    load_corpus,
    write_corpus,
)
from framedskein.diagram import ParseError


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(DEFAULT_SEED)


class TestGeneration:
    def test_deterministic(self, corpus):
        again = generate_corpus(DEFAULT_SEED)
        assert [(e.id, e.pd) for e in again] == \
            [(e.id, e.pd) for e in corpus]

    def test_ids_unique(self, corpus):
        ids = [e.id for e in corpus]
        assert len(ids) == len(set(ids))

    def test_coverage(self, corpus):
        resolved = [e for e in corpus if e.n_flat == 0]
        assert len(resolved) >= 50
        assert max(e.n_crossings for e in corpus) <= 8
        assert {e.n_flat for e in corpus if e.n_flat} == {1, 2, 3, 4}
        assert len({e.n_components for e in corpus}) >= 3

    def test_metadata_matches_diagram(self, corpus):
        for e in corpus:
            d = e.diagram()
            assert d.n_crossings == e.n_crossings
            assert d.n_components() == e.n_components
            assert len(d.flat_crossings()) == e.n_flat

    def test_no_duplicate_diagrams_among_braids(self, corpus):
        codes = [e.diagram().canonical_code() for e in corpus
                 if e.id.startswith("braid-")]
        assert len(codes) == len(set(codes))

    def test_other_seed_differs(self, corpus):
        other = generate_corpus(DEFAULT_SEED + 1)
        assert [e.pd for e in other] != [e.pd for e in corpus]


class TestRoundTrip:
    def test_write_then_load(self, corpus, tmp_path):
        manifest = write_corpus(corpus, tmp_path)
        assert manifest.name == "manifest.json"
        again = load_corpus(tmp_path)
        assert again == corpus

    def test_reparse_fixed_point(self, corpus):
        # edge labels may be renumbered on reparse; the canonical code is
        # the reparse fixed point
        from framedskein.diagram import parse_diagram, serialize_pd
        for e in corpus[:10]:
            d = e.diagram()
            again = parse_diagram(serialize_pd(d), "pd")
            assert again.canonical_code() == d.canonical_code()


class TestMalformedManifest:
    @pytest.mark.parametrize("text, complaint", [
        ("{not json", "is not JSON"),
        ('{"id": "unknot"}', "is not a list"),
        ('[{"id": "unknot", "n_crossings": 0, "n_components": 1,'
         ' "n_flat": 0}]', "entry 0 has no str 'file'"),
        ("[3]", "entry 0 is not an object")])
    def test_parse_error_names_the_manifest(self, tmp_path, text, complaint):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ParseError) as info:
            load_corpus(tmp_path)
        assert "manifest.json" in str(info.value)
        assert complaint in str(info.value)

    @pytest.mark.parametrize("key, value", [
        ("n_crossings", 9), ("n_components", 3), ("n_flat", 0)])
    def test_counts_must_match_the_diagram(self, tmp_path, key, value):
        entries = [e for e in generate_corpus() if e.n_flat == 1][:1]
        manifest = write_corpus(entries, tmp_path)
        rows = json.loads(manifest.read_text())
        assert rows[0][key] != value
        rows[0][key] = value
        manifest.write_text(json.dumps(rows))
        with pytest.raises(ParseError) as info:
            load_corpus(tmp_path)
        assert f"entry 0 has {key} {value}" in str(info.value)
        assert "manifest.json" in str(info.value)

    @pytest.mark.parametrize("name", [
        "/etc/hostname", "../corpus.pd", "sub/unknot.pd", ".", "..", ""])
    def test_file_must_be_a_name_in_the_directory(self, tmp_path, name):
        # no file outside the corpus directory is read, and so none is
        # quoted in the error
        manifest = write_corpus(generate_corpus()[:1], tmp_path)
        rows = json.loads(manifest.read_text())
        rows[0]["file"] = name
        manifest.write_text(json.dumps(rows))
        with pytest.raises(ParseError) as info:
            load_corpus(tmp_path)
        assert f"entry 0 has file {name!r}" in str(info.value)

    @pytest.mark.parametrize("key", ["n_crossings", "n_components", "n_flat"])
    def test_counts_are_not_bools(self, tmp_path, key):
        entries = [e for e in generate_corpus() if e.n_flat == 0][:1]
        manifest = write_corpus(entries, tmp_path)
        rows = json.loads(manifest.read_text())
        rows[0][key] = bool(rows[0][key])
        manifest.write_text(json.dumps(rows))
        with pytest.raises(ParseError) as info:
            load_corpus(tmp_path)
        assert f"entry 0 has no int {key!r}" in str(info.value)

    def test_pd_file_that_does_not_parse(self, tmp_path):
        manifest = write_corpus(generate_corpus()[:2], tmp_path)
        name = json.loads(manifest.read_text())[1]["file"]
        (tmp_path / name).write_text("X[1,2\n")
        with pytest.raises(ParseError) as info:
            load_corpus(tmp_path)
        assert str(info.value).startswith(f"{tmp_path / name}: ")

    def test_pd_file_not_utf8(self, tmp_path):
        manifest = write_corpus(generate_corpus()[:2], tmp_path)
        name = json.loads(manifest.read_text())[1]["file"]
        (tmp_path / name).write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError) as info:
            load_corpus(tmp_path)
        assert f"{name} is not UTF-8 text" in str(info.value)
