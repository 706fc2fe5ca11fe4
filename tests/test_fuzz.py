"""The fuzz generator's draws are pinned: specs and vectors hash to digests
recorded before random_vectors computed its bounds once per spec.  The
benchmark's fuzz corpus and the acceptance test's specs depend on the
number and order of the generator calls, so a change that moves them shows
here first.  random_vectors inlines CPython's randint and choice over
getrandbits; TestDrawsAsRandintAndChoice holds it to what those calls
draw and consume on the running Python."""

import hashlib
import json
import random
from typing import NamedTuple

import pytest

import cigen.fuzz
from conftest import CORPUS_CONFIG, CORPUS_SEED, CORPUS_VECTORS, rows
from cigen.frontend import parse_ci_spec
from cigen.fuzz import random_spec, random_vector, random_vectors

PIN_SPECS = [
    "ci p(opcode=0) { input a: signed<1>; input b: unsigned<1>;"
    " input c: signed<3>; input d: unsigned<2>; output y: signed<8>;"
    " y = (a + b) * (c - d); }",
    "ci q(opcode=1) { input a: signed<32>; input b: unsigned<32>;"
    " input c: signed<17>; input d: unsigned<12>; output y: unsigned<32>;"
    " y = (a / d) + (b mod c); }",
]
PIN_SEEDS = (0, 1, 20260814)
VECTORS_SHA256 = \
    "90e638c64a13ec7eb360411715cc4ab47f243b362be989dcf91701c6c9da7e05"

CORPUS_TEXTS_SHA256 = \
    "f00d6352fdfc0dd0586f96ced60587799b6e926ce0e9aaf0c5e0e065ccbea2ec"


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


class TestPinnedDraws:
    def test_vectors(self):
        vectors = [rows(random_vectors(random.Random(seed),
                                       parse_ci_spec(text), 256))
                   for text in PIN_SPECS for seed in PIN_SEEDS]
        assert _sha256(vectors) == VECTORS_SHA256

    def test_vectors_draw_as_single_vectors_do(self):
        spec = parse_ci_spec(PIN_SPECS[1])
        one_by_one = random.Random(5)
        assert rows(random_vectors(random.Random(5), spec, 64)) == \
            [random_vector(one_by_one, spec) for _ in range(64)]

    def test_acceptance_corpus_texts(self, monkeypatch):
        texts = []

        def capture(text):
            texts.append(text)
            return parse_ci_spec(text)

        monkeypatch.setattr(cigen.fuzz, "parse_ci_spec", capture)
        rng = random.Random(CORPUS_SEED)
        for index in range(100):
            spec = random_spec(rng, f"fz{index}", CORPUS_CONFIG)
            random_vectors(rng, spec, CORPUS_VECTORS)
        assert len(texts) == 100
        assert _sha256(texts) == CORPUS_TEXTS_SHA256


class _Range(NamedTuple):
    """An input as the draw reads it: its name and its bounds."""
    name: str
    bounds: tuple[int, int]


def _reference_draw(rng: random.Random, bounds: list[tuple[int, int]],
                    count: int) -> list[list[int]]:
    """count vectors drawn through rng.randint and rng.choice, vector by
    vector and input by input, then one column per input."""
    pools = [[v for v in {lo, hi, 0, 1, lo + 1, hi - 1, -1, 2} if lo <= v <= hi]
             for lo, hi in bounds]
    vectors = [[rng.choice(pool) if rng.random() < 0.25 else rng.randint(lo, hi)
                for (lo, hi), pool in zip(bounds, pools)]
               for _ in range(count)]
    return [list(column) for column in zip(*vectors)]


_DRIFT = ("random_vectors no longer draws what rng.randint and rng.choice "
          "draw on this Python; its inlined rejection over getrandbits must "
          "follow random.Random._randbelow, or the pinned corpora drift")

# Bounds whose corner pools hold 1 to 8 values, over spans that are not
# powers of two.
POOL_BOUNDS = [(5, 5), (5, 6), (5, 7), (3, 6), (0, 4), (-1, 10), (-3, 3),
               (-10, 10)]


class TestDrawsAsRandintAndChoice:
    """random_vectors gives the columns a draw through rng.randint and
    rng.choice gives, and leaves rng in the same state."""

    def _same_as_reference(self, spec, count: int, seed: int) -> None:
        drawn_rng, reference_rng = random.Random(seed), random.Random(seed)
        columns = random_vectors(drawn_rng, spec, count)
        assert list(columns) == [decl.name for decl in spec.inputs]
        expected = _reference_draw(
            reference_rng, [decl.bounds for decl in spec.inputs], count)
        assert list(columns.values()) == expected, _DRIFT
        assert drawn_rng.getstate() == reference_rng.getstate(), _DRIFT

    @pytest.mark.parametrize("sign", ["signed", "unsigned"])
    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_every_width(self, sign, seed):
        decls = " ".join(f"input v{w}: {sign}<{w}>;" for w in range(1, 33))
        spec = parse_ci_spec(f"ci w(opcode=0) {{ {decls} output y: {sign}<32>;"
                             " y = v1 + v32; }")
        self._same_as_reference(spec, 200, seed)

    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_pools_of_one_to_eight_corners(self, seed):
        pools = [{v for v in {lo, hi, 0, 1, lo + 1, hi - 1, -1, 2}
                  if lo <= v <= hi} for lo, hi in POOL_BOUNDS]
        assert [len(pool) for pool in pools] == list(range(1, 9))
        spec = parse_ci_spec(PIN_SPECS[0])._replace(inputs=tuple(
            _Range(f"r{index}", bounds) for index, bounds in enumerate(POOL_BOUNDS)))
        self._same_as_reference(spec, 500, seed)

    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_one_vector_is_the_one_row_of_a_draw(self, seed):
        spec = parse_ci_spec(PIN_SPECS[1])
        drawn_rng, reference_rng = random.Random(seed), random.Random(seed)
        vector = random_vector(drawn_rng, spec)
        (expected,) = rows(dict(zip(
            vector, _reference_draw(reference_rng,
                                    [decl.bounds for decl in spec.inputs], 1))))
        assert vector == expected, _DRIFT
        assert drawn_rng.getstate() == reference_rng.getstate(), _DRIFT
