import numpy as np
import pytest

from dpntk.rng import RngStream, _label_word, _uint32_words


def test_same_seed_and_path_replays_draws():
    a = RngStream(123).substream("a").generator().standard_normal(1000)
    b = RngStream(123).substream("a").generator().standard_normal(1000)
    np.testing.assert_array_equal(a, b)


def test_distinct_labels_give_distinct_draws():
    r = RngStream(123)
    a = r.substream("a").generator().standard_normal(10)
    b = r.substream("b").generator().standard_normal(10)
    assert a[0] != b[0]


def test_generator_is_replayable_from_the_same_stream():
    r = RngStream(5, ("x", "y"))
    np.testing.assert_array_equal(
        r.generator().random(50), r.generator().random(50)
    )


def test_nested_paths_differ_from_flat_labels():
    r = RngStream(1)
    nested = r.substream("a").substream("b").generator().random(4)
    flat = r.substream("a/b").generator().random(4)
    assert not np.array_equal(nested, flat)


def test_standard_normal_moments():
    # Monte-Carlo moment check: mean within 5/sqrt(N), variance within 0.02.
    draws = RngStream(2024).substream("mc").generator().standard_normal(10**6)
    assert abs(draws.mean()) <= 5.0 / np.sqrt(10**6)
    assert abs(draws.var() - 1.0) <= 0.02


def test_negative_seed_accepted():
    draws = RngStream(-7).substream("z").generator().random(3)
    assert draws.shape == (3,)


# Seeds at every word boundary of the 64-bit mask, negatives included, and
# paths from the root to six levels, with a label outside ASCII.
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -7, -(2**63)]
_PATHS = [(), ("a",), ("verify", "trial-3", "fit", "priv", "tlap", "7"), ("naïve-ß-標籤",)]


def _first_draws(gen: np.random.Generator) -> list[bytes]:
    return [
        gen.random(4).tobytes(),
        gen.standard_normal(4).tobytes(),
        gen.integers(0, 2**62, 4).tobytes(),
        gen.chisquare(3.5, 4).tobytes(),
    ]


@pytest.mark.parametrize("path", _PATHS, ids=lambda p: f"depth{len(p)}")
@pytest.mark.parametrize("seed", _SEEDS)
def test_generator_equals_the_int_list_seed_sequence(seed, path):
    # The stream hands SeedSequence uint32 words; they must seed exactly the
    # generator numpy builds from the list of ints itself.
    entropy = [seed & (2**64 - 1)] + [_label_word(lbl) for lbl in path]
    literal = np.random.default_rng(np.random.SeedSequence(entropy))
    assert _first_draws(RngStream(seed, path).generator()) == _first_draws(literal)


@pytest.mark.parametrize(
    "value, words",
    [(0, (0,)), (2**32 - 1, (2**32 - 1,)), (2**32, (0, 1)), (2**64 - 1, (2**32 - 1, 2**32 - 1))],
)
def test_word_split_is_numpys_coercion(value, words):
    assert _uint32_words(value) == words
    as_int = np.random.SeedSequence([value]).generate_state(8)
    as_words = np.random.SeedSequence(np.array(words, dtype=np.uint32)).generate_state(8)
    assert np.array_equal(as_int, as_words)
