"""Deterministic, seed-driven diagram corpus.

Every diagram is generated in-repo (torus closures, kink chains, random
braid closures and flat-point variants), so all golden values used by
the verification suites are reproducible from the seed alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .diagram import (
    DiagramError,
    FramedDiagram,
    ParseError,
    parse_diagram,
    serialize_pd,
)

DEFAULT_SEED = 42
MAX_CROSSINGS = 8


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    pd: str
    n_crossings: int
    n_components: int
    n_flat: int

    def diagram(self) -> FramedDiagram:
        return parse_diagram(self.pd, "pd")


def _entry(name: str, d: FramedDiagram) -> CorpusEntry:
    return CorpusEntry(name, serialize_pd(d), d.n_crossings,
                       d.n_components(), len(d.flat_crossings()))


def _random_braid_word(rng: random.Random, width: int, length: int) -> str:
    letters = []
    for _ in range(length):
        k = rng.randint(1, width - 1)
        e = rng.choice(("", "^-1"))
        letters.append(f"s{k}{e}")
    return " ".join(letters)


def generate_corpus(seed: int = DEFAULT_SEED) -> list[CorpusEntry]:
    rng = random.Random(seed)
    entries: list[CorpusEntry] = []

    entries.append(_entry("unknot", parse_diagram("O", "pd")))
    entries.append(_entry("unlink2", parse_diagram("O\nO", "pd")))

    # torus braid closures s1^k
    for k in range(1, 7):
        d = parse_diagram(" ".join(["s1"] * k), "braid")
        entries.append(_entry(f"torus-{k}", d))
    entries.append(_entry("torus-neg-3",
                          parse_diagram("s1^-1 s1^-1 s1^-1", "braid")))

    # kink chains: kinks of random signs stacked on one strand
    base = parse_diagram("s1", "braid")
    for i in range(8):
        d = base
        for _ in range(rng.randint(1, MAX_CROSSINGS - 1)):
            arc = d.arcs[rng.randrange(len(d.arcs))]
            d = d.add_kink(arc, rng.choice((1, -1)))
        entries.append(_entry(f"kinks-{i}", d))

    # random braid closures, deduplicated by canonical code
    seen = {e.diagram().canonical_code() for e in entries}
    count = 0
    while count < 34:
        width = rng.randint(2, 4)
        length = rng.randint(3, MAX_CROSSINGS)
        word = _random_braid_word(rng, width, length)
        d = parse_diagram(word, "braid")
        code = d.canonical_code()
        if code in seen:
            continue
        seen.add(code)
        entries.append(_entry(f"braid-{count}", d))
        count += 1

    # flat-point variants: k of the crossings forgotten, k = 1..4
    resolved = [e for e in entries if e.n_crossings >= 4 and e.n_flat == 0]
    for k in range(1, 5):
        for i in range(3):
            e = resolved[rng.randrange(len(resolved))]
            d = e.diagram()
            for c in rng.sample(range(d.n_crossings), k):
                d = d.make_flat(c)
            entries.append(_entry(f"flat{k}-{i}-{e.id}", d))

    return entries


def write_corpus(entries: list[CorpusEntry], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for e in entries:
        (out / f"{e.id}.pd").write_text(e.pd)
        manifest.append({"id": e.id, "file": f"{e.id}.pd",
                         "n_crossings": e.n_crossings,
                         "n_components": e.n_components,
                         "n_flat": e.n_flat})
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


_MANIFEST_FIELDS = {"id": str, "file": str, "n_crossings": int,
                    "n_components": int, "n_flat": int}


def load_corpus(dir_path: str | Path) -> list[CorpusEntry]:
    """Entries listed in ``manifest.json`` under ``dir_path``; a manifest
    that is not a JSON list of entries as ``write_corpus`` writes them,
    or whose counts differ from its ``.pd`` files, raises ``ParseError``.
    An entry's ``file`` must be a bare file name, so that only files in
    ``dir_path`` are read."""
    out = Path(dir_path)
    path = out / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise ParseError(f"{path} is not JSON: {e}") from None
    if not isinstance(manifest, list):
        raise ParseError(f"{path} is not a list of entries")
    entries = []
    for i, m in enumerate(manifest):
        if not isinstance(m, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
        for key, kind in _MANIFEST_FIELDS.items():
            # ``type`` and not ``isinstance``: JSON's true is no count
            if type(m.get(key)) is not kind:
                raise ParseError(
                    f"{path}: entry {i} has no {kind.__name__} {key!r}")
        if m["file"] in ("", ".", "..") or Path(m["file"]).name != m["file"]:
            raise ParseError(f"{path}: entry {i} has file {m['file']!r}, "
                             "which is not a file name in the corpus "
                             "directory")
        try:
            text = (out / m["file"]).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"{out / m['file']} is not UTF-8 text: {err}") \
                from None
        e = CorpusEntry(m["id"], text, m["n_crossings"], m["n_components"],
                        m["n_flat"])
        try:
            d = e.diagram()
        except (ParseError, DiagramError) as err:
            raise ParseError(f"{out / m['file']}: {err}") from None
        for key, got in (("n_crossings", d.n_crossings),
                         ("n_components", d.n_components()),
                         ("n_flat", len(d.flat_crossings()))):
            if m[key] != got:
                raise ParseError(f"{path}: entry {i} has {key} {m[key]}, "
                                 f"but {m['file']} has {got}")
        entries.append(e)
    return entries


_cache: dict[int, list[CorpusEntry]] = {}


def default_corpus(seed: int = DEFAULT_SEED) -> list[CorpusEntry]:
    if seed not in _cache:
        _cache[seed] = generate_corpus(seed)
    return _cache[seed]
