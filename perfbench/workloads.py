"""The four benchmark workloads: input generation, the timed item, and
the check of each output that does not go through the skein engine.

Why the run seed only orders the inputs
---------------------------------------
Every workload's inputs are a fixed population drawn once from the
catalogue seeds below, and ``--seed`` shuffles the order of a pass.
The size of a skein tree is heavy-tailed and depends strongly on the
presentation of a diagram: over random 3- and 4-braid closures of 12-18
crossings the per-item time has a coefficient of variation of about 4,
and one catalogue word stores 79 memo nodes as written but 441 after the
flip ``s_i -> s_(w-i)``, which is a half turn of the same closure.  Inputs
drawn from the run seed made items/s differ by about 19% (quartile
spread over the median, 10 simulated seeds) between seeds, which would
hide any regression smaller than that.  Every item has a fresh memo, so
the order changes no work; whole passes keep the composition of a run
independent of where the clock stops.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from framedskein import corpus as fs_corpus
from framedskein import diagram as fs_diagram
from framedskein import oracle as fs_oracle
from framedskein import perturb as fs_perturb
from framedskein import singular as fs_singular
from framedskein import skein as fs_skein

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "braid_goldens.json"

# Node budget passed to every evaluate call through the public argument;
# far above any tree here (a whole braid-laurent pass stores 5702 nodes).
NODE_BUDGET = 200_000

BRAID_CATALOGUE_SEED = 1
BRAID_WIDTHS = (3, 4)
BRAID_LENGTHS = range(12, 19)
BRAID_PER_STRATUM = 6

FINITE_CATALOGUE_SEED = 2
FINITE_LENGTHS = range(10, 15)
FINITE_FLATS = (1, 2, 3)
FINITE_PER_STRATUM = 2
FINITE_NS = (0, 1)
FINITE_ORDER = 8

LONG_CHAIN_SEED = 3
KINK_RANGE = (20, 120)
KINK_ITEMS = 24
TORUS_RANGE = (10, 45)
TORUS_ITEMS = 12

# Catalogue words on which the engine gives a wrong Laurent value at the
# commit that added this benchmark (the state-sum specialisation check
# fails on them too).  All are multi-component closures.  The likely
# cause is that ``_component_tokens`` starts its first-slot table afresh
# on every strand, so the slot offset at a crossing between two strands
# is not encoded and different diagrams in one skein tree can share a
# canonical code.  They are kept out of the timed pass, because a run
# whose outputs are wrong is not a measurement, and are evaluated and
# checked once in every run instead, where the result is reported as
# ``known_wrong`` (run.py).  When the engine is right on them they
# belong back in the pass.
KNOWN_WRONG = (
    "s2 s2 s1^-1 s2 s2 s1^-1 s2 s2 s1^-1 s1^-1 s2 s2^-1",
    "s1 s1 s2 s1^-1 s2 s1^-1 s2 s1 s1 s2 s2 s1 s2 s2 s2^-1 s2^-1",
    "s3^-1 s2 s3 s2^-1 s2 s2^-1 s2^-1 s3 s2 s3^-1 s2^-1 s3 s2^-1 s3^-1 "
    "s3^-1 s2 s2 s1",
)

INVARIANCE_SEED = 4
INVARIANCE_REPEATS = 2
INVARIANCE_MAX_CROSSINGS = 11
INVARIANCE_SERIES = (0, 5)  # (n, order) of the series-ring side

Letters = list[tuple[int, int]]  # (generator index, exponent +-1)


# ---------------------------------------------------------------------------
# Braid words


def random_word(rng: random.Random, width: int, length: int) -> Letters:
    return [(rng.randint(1, width - 1), rng.choice((1, -1)))
            for _ in range(length)]


def word_text(letters: Letters) -> str:
    return " ".join(f"s{k}" if e == 1 else f"s{k}^-1" for k, e in letters)


def braid_catalogue() -> list[Letters]:
    rng = random.Random(BRAID_CATALOGUE_SEED)
    return [random_word(rng, width, length)
            for width in BRAID_WIDTHS
            for length in BRAID_LENGTHS
            for _ in range(BRAID_PER_STRATUM)]


def finite_catalogue() -> list[tuple[Letters, list[int]]]:
    """Words with the letter positions that become flat points."""
    rng = random.Random(FINITE_CATALOGUE_SEED)
    out = []
    for width in BRAID_WIDTHS:
        for length in FINITE_LENGTHS:
            for k in FINITE_FLATS:
                for _ in range(FINITE_PER_STRATUM):
                    letters = random_word(rng, width, length)
                    out.append((letters, sorted(rng.sample(range(length), k))))
    return out


# ---------------------------------------------------------------------------
# Independent checks.  None of them evaluates a diagram with the engine.


def load_goldens() -> dict[str, dict[int, int]]:
    """Bracket of each catalogue word, computed once by the state-sum
    oracle (see make_goldens.py)."""
    raw = json.loads(GOLDEN_PATH.read_text())
    return {w: {int(d): c for d, c in terms.items()} for w, terms in raw.items()}


def _real_terms(value) -> dict[tuple[int, int], Fraction]:
    out = {}
    for exp, c in value.terms.items():
        if c.im != 0:
            return {}
        out[exp] = c.re
    return out


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, z1), c1 in p.items():
        for (a2, z2), c2 in q.items():
            e = (a1 + a2, z1 + z2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _padd(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def torus_closed_form(k: int) -> dict[tuple[int, int], Fraction]:
    """Value of the closure of ``s1^k`` from the T(2,k) recurrence
    F_k = F_(k-2) + z (F_(k-1) - a^-(k-1)), F_0 = delta, F_1 = a."""
    one = Fraction(1)
    z = {(0, 1): one}
    prev = {(0, 0): one, (1, -1): one, (-1, -1): -one}  # delta
    cur = {(1, 0): one}
    if k == 0:
        return prev
    for j in range(2, k + 1):
        nxt = _padd(prev, _pmul(z, _padd(cur, {(-(j - 1), 0): one}, -1)))
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Input:
    """One item's input, as text so that every pass parses a fresh
    diagram, and what its check needs."""

    label: str
    text: str
    fmt: str
    flats: tuple[int, ...] = ()
    meta: dict = field(default_factory=dict)

    def build(self):
        d = fs_diagram.parse_diagram(self.text, self.fmt)
        for c in self.flats:
            d = d.make_flat(c)
        return d


@dataclass
class Counters:
    """Counts taken through the public ``memo=``, ``on_expand`` and
    ``rng`` arguments in the traced pass."""

    memo_inserts: int = 0
    memo_hits: int = 0
    expansions: int = 0
    rng_draws: int = 0

    def on_expand(self, parent, child):
        self.expansions += 1


class CountingMemo(fs_skein.MemoTable):
    def __init__(self, counters: Counters):
        super().__init__()
        self.counters = counters

    def __getitem__(self, key):
        self.counters.memo_hits += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        if key not in self:
            self.counters.memo_inserts += 1
        super().__setitem__(key, value)


class CountingRandom(random.Random):
    """``random_perturbation`` draws ``randrange`` once per move it applies."""

    def __init__(self, seed, counters: Counters):
        super().__init__(seed)
        self.counters = counters

    def randrange(self, *args, **kwargs):
        self.counters.rng_draws += 1
        return super().randrange(*args, **kwargs)


class Workload:
    """Inputs of one pass, the timed item and the check of its output.

    ``counters`` is ``None`` in an untraced pass, which then passes the
    engine exactly the arguments a plain caller would.
    """

    def __init__(self, params: list):
        self.params = params  # every parameter set the items evaluate in
        self.inputs: list[Input] = []
        self.known_wrong: list[Input] = []  # checked once a run, untimed

    def run(self, d, inp: Input, counters: Counters | None):
        raise NotImplementedError

    def check(self, inp: Input, out) -> bool:
        raise NotImplementedError

    @staticmethod
    def memo(counters):
        return fs_skein.MemoTable() if counters is None else CountingMemo(counters)

    @staticmethod
    def evaluate(d, params, memo, counters):
        return fs_skein.evaluate(
            d, params, budget=NODE_BUDGET, memo=memo,
            on_expand=None if counters is None else counters.on_expand)


class BraidLaurent(Workload):
    def __init__(self):
        super().__init__([fs_skein.default_params("laurent")])
        goldens = load_goldens()
        for letters in braid_catalogue():
            text = word_text(letters)
            if text not in goldens:
                raise RuntimeError(f"no golden bracket for {text!r}")
            inp = Input(text, text, "braid", meta={"bracket": goldens[text]})
            if text in KNOWN_WRONG:
                self.known_wrong.append(inp)
            else:
                self.inputs.append(inp)
        if len(self.known_wrong) != len(KNOWN_WRONG):
            raise RuntimeError("KNOWN_WRONG names a word not in the catalogue")

    def run(self, d, inp, counters):
        return self.evaluate(d, self.params[0], self.memo(counters), counters)

    def check(self, inp, out):
        return fs_oracle.specialize_to_bracket(out).terms == inp.meta["bracket"]


class FiniteType(Workload):
    def __init__(self):
        super().__init__([fs_skein.default_params("series", n=n,
                                                  order=FINITE_ORDER)
                          for n in FINITE_NS])
        for letters, flats in finite_catalogue():
            text = word_text(letters)
            self.inputs.append(Input(f"{text} flat {flats}", text, "braid",
                                     tuple(flats)))

    def run(self, d, inp, counters):
        out = []
        for params in self.params:
            memo = self.memo(counters)  # one memo per table and parameter set
            out.append(fs_singular.derived_invariant(
                lambda x: self.evaluate(x, params, memo, counters), d).value)
        return out

    def check(self, inp, out):
        # v_n^m = 0 for m < k
        k = len(inp.flats)
        return all(c.re == 0 and c.im == 0
                   for value in out for c in value.coeffs[:k])


def size_schedule(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes from ``lo`` to ``hi`` at evenly spaced quantiles of
    the density ~ 1/n^3.  Evaluation time grows like n^3, so each size
    band takes a similar share of the pass, the largest size appears
    once, and the many small items make the latency quantiles steady."""
    a, b = lo ** -2, hi ** -2
    return [round((a - i / (count - 1) * (a - b)) ** -0.5)
            for i in range(count)]


class LongChain(Workload):
    def __init__(self):
        super().__init__([fs_skein.default_params("laurent")])
        rng = random.Random(LONG_CHAIN_SEED)
        chains = []
        for n in size_schedule(*KINK_RANGE, KINK_ITEMS):
            d = fs_diagram.parse_diagram("s1", "braid")
            w = 1
            for _ in range(n - 1):
                sign = rng.choice((1, -1))
                d = d.add_kink(d.arcs[rng.randrange(len(d.arcs))], sign)
                w += sign
            chains.append(Input(f"{n} kinks, writhe {w}",
                                fs_diagram.serialize_pd(d), "pd",
                                meta={"expect": {(w, 0): Fraction(1)}}))
        tori = [Input(f"s1^{k}", " ".join(["s1"] * k), "braid",
                      meta={"expect": torus_closed_form(k)})
                for k in size_schedule(*TORUS_RANGE, TORUS_ITEMS)]
        # Two chains per torus closure, smallest first (``--items``
        # keeps the first inputs).
        for i, inp in enumerate(chains):
            self.inputs.append(inp)
            if i % 2 == 1:
                self.inputs.append(tori[i // 2])

    def run(self, d, inp, counters):
        return self.evaluate(d, self.params[0], self.memo(counters), counters)

    def check(self, inp, out):
        return _real_terms(out) == inp.meta["expect"]


class Invariance(Workload):
    def __init__(self, corpus):
        n, order = INVARIANCE_SERIES
        super().__init__([fs_skein.default_params("laurent"),
                          fs_skein.default_params("series", n=n, order=order)])
        rng = random.Random(INVARIANCE_SEED)
        resolved = [e for e in corpus if e.n_flat == 0]
        for _ in range(INVARIANCE_REPEATS):
            for e in resolved:
                pseed = rng.getrandbits(32)
                steps = rng.randint(1, 2)
                self.inputs.append(Input(f"{e.id} pseed {pseed}", e.pd, "pd",
                                         meta={"pseed": pseed, "steps": steps}))

    def run(self, d, inp, counters):
        pseed = inp.meta["pseed"]
        rng = random.Random(pseed) if counters is None \
            else CountingRandom(pseed, counters)
        p = fs_perturb.random_perturbation(
            d, rng, steps=inp.meta["steps"],
            max_crossings=INVARIANCE_MAX_CROSSINGS)
        return [self.evaluate(x, params, self.memo(counters), counters)
                for params in self.params for x in (d, p)]

    def check(self, inp, out):
        lo, lp, so, sp = out
        return lo == lp and so == sp


def make(name: str, seed: int, items: int = 0):
    """Set-up of one workload: corpus, inputs, first convention audit.

    ``items`` keeps only the first inputs of the catalogue (smoke test);
    ``seed`` then shuffles the pass.
    """
    corpus = fs_corpus.generate_corpus(fs_corpus.DEFAULT_SEED)
    if name == "braid-laurent":
        w = BraidLaurent()
    elif name == "finite-type":
        w = FiniteType()
    elif name == "long-chain":
        w = LongChain()
    elif name == "invariance":
        w = Invariance(corpus)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if items:
        w.inputs = w.inputs[:items]
    random.Random(seed).shuffle(w.inputs)
    probe = fs_diagram.parse_diagram("s1", "braid")
    for params in w.params:
        fs_skein.evaluate(probe, params)  # runs the convention audit once
    return w, corpus
