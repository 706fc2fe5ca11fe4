"""The fuzz generator's draws are pinned: specs and vectors hash to digests
recorded before random_vectors computed its bounds once per spec.  The
benchmark's fuzz corpus and the acceptance test's specs depend on the
number and order of the generator calls, so a change that moves them shows
here first."""

import hashlib
import json
import random

import cigen.fuzz
from conftest import CORPUS_CONFIG, CORPUS_SEED, CORPUS_VECTORS
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
        vectors = [random_vectors(random.Random(seed), parse_ci_spec(text), 256)
                   for text in PIN_SPECS for seed in PIN_SEEDS]
        assert _sha256(vectors) == VECTORS_SHA256

    def test_vectors_draw_as_single_vectors_do(self):
        spec = parse_ci_spec(PIN_SPECS[1])
        one_by_one = random.Random(5)
        assert random_vectors(random.Random(5), spec, 64) == \
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
