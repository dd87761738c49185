import hashlib
import os
import random

import numpy as np
import pytest

from replab import rng
from replab.errors import ValidationError


def test_same_key_reproduces():
    a = rng.path_generator(123, 4).standard_normal(64)
    b = rng.path_generator(123, 4).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_paths_and_seeds_differ():
    a = rng.path_generator(123, 4).standard_normal(64)
    b = rng.path_generator(123, 5).standard_normal(64)
    c = rng.path_generator(124, 4).standard_normal(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_block_size_does_not_change_the_stream():
    whole = rng.path_generator(9, 0).standard_normal(100)
    gen = rng.path_generator(9, 0)
    pieces = np.concatenate([gen.standard_normal(13), gen.standard_normal(87)])
    assert np.array_equal(whole, pieces)


def test_draws_look_standard_normal():
    x = rng.path_generator(2024, 1).standard_normal(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    assert abs(np.mean(x**3)) < 0.02          # skewness
    assert abs(np.mean(x**4) - 3.0) < 0.05    # kurtosis


def test_path_generator_reads_no_os_entropy(monkeypatch):
    key = np.array([2005, 7], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(64)

    def no_entropy(size):
        raise AssertionError("OS entropy was read")

    # numpy's SeedSequence() draws through random.SystemRandom, which holds its
    # own reference to os.urandom
    monkeypatch.setattr(os, "urandom", no_entropy)
    monkeypatch.setattr(random, "_urandom", no_entropy)
    assert np.array_equal(rng.path_generator(2005, 7).standard_normal(64), expected)


def test_seed_validation():
    with pytest.raises(ValidationError):
        rng.check_seed(-1)
    with pytest.raises(ValidationError):
        rng.check_seed(2**64)
    with pytest.raises(ValidationError):
        rng.path_generator(0, -1)
    assert rng.check_seed(np.uint64(7)) == 7


# computed with numpy 2.4; numpy promises no cross-version stream stability for
# Generator distributions (NEP 19), so a change here means every fixed-seed
# output of the engine moved
GOLDEN_NORMALS_SHA256 = "51ed9d9cd2519eb5ec01684c125d3a8482bc3d8ca0308e34afe915df85984e48"


def test_golden_normals_digest():
    draws = rng.path_generator(2005, 7).standard_normal(4096)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_NORMALS_SHA256
