import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from gbmtails.rng import RngStream, StreamUniformBlock, normals_from_uniforms


def test_identical_keys_replay_identical_sequences():
    a = RngStream(12345, 3).uniforms(64)
    b = RngStream(12345, 3).uniforms(64)
    assert a.tobytes() == b.tobytes()


def test_distinct_streams_differ():
    a = RngStream(12345, 0).uniforms(64)
    b = RngStream(12345, 1).uniforms(64)
    c = RngStream(12346, 0).uniforms(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scalar_and_vector_draws_consume_identically():
    a = RngStream(7, 0)
    b = RngStream(7, 0)
    assert [a.uniform(), a.uniform()] == list(b.uniforms(2))


def test_normals_are_inverse_cdf_of_uniforms():
    u = RngStream(9, 4).uniforms(1000)
    z = RngStream(9, 4).normals(1000)
    assert np.array_equal(z, ndtri(np.maximum(u, 2.0**-53)))
    # monotone coupling
    order_u = np.argsort(u)
    assert np.array_equal(np.argsort(z), order_u)


def test_uniforms_pass_ks():
    u = RngStream(2024, 0).uniforms(20000)
    assert kstest(u, "uniform").pvalue > 0.01


def test_normals_pass_ks():
    z = RngStream(2024, 1).normals(20000)
    assert kstest(z, "norm").pvalue > 0.01


def test_substream_is_memoized_and_deterministic():
    master = RngStream(5, 2)
    child = master.substream(17)
    assert master.substream(17) is child
    first = child.normal()
    # a fresh master replays the same child sequence
    again = RngStream(5, 2).substream(17).normal()
    assert first == again
    # children with different indices differ
    assert RngStream(5, 2).substream(18).normal() != first


def test_substreams_distinct_from_plain_streams():
    child = RngStream(5, 2).substream(3).uniforms(8)
    plain = RngStream(5, 3).uniforms(8)
    assert not np.array_equal(child, plain)


def test_validation():
    with pytest.raises(ValueError):
        RngStream(1 << 64, 0)
    with pytest.raises(ValueError):
        RngStream(0, -1)
    with pytest.raises(TypeError):
        RngStream(1.5, 0)
    with pytest.raises(ValueError):
        RngStream(0, 0).substream(-1)


def test_uniform_block_matches_per_stream_construction():
    block = StreamUniformBlock(909, width=3).take(5, 20)
    for j in range(20):
        expect = RngStream(909, 5 + j).uniforms(3)
        assert block[j].tobytes() == expect.tobytes()


def test_normals_from_uniforms_matches_stream_normals():
    u = RngStream(11, 0).uniforms(100)
    assert np.array_equal(normals_from_uniforms(u), RngStream(11, 0).normals(100))


def _numpy_first_draws(seed, stream_id, width):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
    return gen.random(width)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("width", range(1, 10))
def test_uniform_block_matches_numpy_philox(seed, width):
    for start in (0, 2**64 - 40):
        block = StreamUniformBlock(seed, width).take(start, 40)
        assert block.shape == (40, width)
        for j in range(40):
            assert block[j].tobytes() == _numpy_first_draws(seed, start + j, width).tobytes()


@pytest.mark.parametrize("n", [0, 1, 65_535, 65_536, 65_537])
def test_uniform_block_chunk_edges(n):
    seed, width, start = 2**63 + 5, 5, 2**64 - 70_000
    block = StreamUniformBlock(seed, width).take(start, n)
    assert block.shape == (n, width)
    edges = {0, 16_383, 16_384, 32_767, 32_768, 65_535, 65_536, n - 1}
    for j in sorted(e for e in edges if 0 <= e < n):
        assert block[j].tobytes() == _numpy_first_draws(seed, start + j, width).tobytes()


def test_seeds_outside_64_bits_are_rejected():
    for seed in (-1, 1 << 64, (1 << 64) + 5):
        with pytest.raises(ValueError):
            RngStream(seed, 0)
        with pytest.raises(ValueError):
            StreamUniformBlock(seed, 2)
    with pytest.raises(TypeError):
        StreamUniformBlock(1.5, 2)
    assert RngStream(2**64 - 1, 0).seed == 2**64 - 1


def test_uniform_block_stream_ids_stay_in_64_bits():
    block = StreamUniformBlock(3, 2)
    assert block.take(2**64 - 1, 1).shape == (1, 2)
    with pytest.raises(ValueError):
        block.take(2**64 - 1, 2)
    with pytest.raises(ValueError):
        block.take(-1, 1)
