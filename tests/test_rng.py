import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from gbmtails import rng
from gbmtails.agents import HiaParams, run_sweep
from gbmtails.killing import KillSchedule, sample_killed_batch
from gbmtails.rng import (
    RngStream,
    StreamUniformBlock,
    _child_keys,
    _philox4x64,
    _uniforms,
    normals_from_uniforms,
)
from gbmtails.sde import GbmParams, euler_path, sample_terminal_log_batch
from gbmtails.serialization import BLOCK_ROWS


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
    # a scalar normal is the vector kernel at n = 1, bit for bit
    got, want = np.array([a.normal(), a.normal()]), b.normals(2)
    assert got.tobytes() == want.tobytes()
    floored = normals_from_uniforms(0.0)
    assert type(floored) is float and floored == normals_from_uniforms(np.zeros(1))[0]


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


def test_substream_replays_its_key():
    master = RngStream(5, 2)
    child = master.substream(17)
    first = child.normal()
    # a second call is a new stream at its first draw, not the first one carried on
    assert master.substream(17).normal() == first
    # a fresh master replays the same child sequence
    again = RngStream(5, 2).substream(17).normal()
    assert first == again
    # children with different indices differ
    assert RngStream(5, 2).substream(18).normal() != first


def test_substreams_distinct_from_plain_streams():
    child = RngStream(5, 2).substream(3).uniforms(8)
    plain = RngStream(5, 3).uniforms(8)
    assert not np.array_equal(child, plain)


def test_a_substream_has_no_substreams():
    """A grandchild would have no key of its own: it drew what the parent's
    child of the same index draws, so it is refused."""
    child = RngStream(5, 2).substream(3)
    with pytest.raises(ValueError, match="substream"):
        child.substream(4)
    # the refusal leaves the child's own draws and its siblings' keys as they were
    assert child.uniforms(3).tobytes() == RngStream(5, 2).substream(3).uniforms(3).tobytes()
    assert RngStream(5, 2).substream(4).uniforms(3).tobytes() != child.uniforms(3).tobytes()


def test_validation():
    with pytest.raises(ValueError):
        RngStream(1 << 64, 0)
    with pytest.raises(ValueError):
        RngStream(0, -1)
    with pytest.raises(TypeError):
        RngStream(1.5, 0)
    with pytest.raises(ValueError):
        RngStream(0, 0).substream(-1)


def test_every_key_part_is_an_integer_in_64_bits():
    master = RngStream(0, 0)
    for make in (lambda: RngStream(True, 0), lambda: RngStream(0, True),
                 lambda: StreamUniformBlock(True, 1), lambda: master.substream(True),
                 lambda: master.substream(1.0), lambda: master.substream("3")):
        with pytest.raises(TypeError):
            make()
    for child in (-1, 2**64):
        with pytest.raises(ValueError):
            master.substream(child)
    a, b = master.substream(17), master.substream(17)
    assert a is not b and a.uniforms(9).tobytes() == b.uniforms(9).tobytes()
    assert master.substream(np.uint64(2**64 - 1)).uniform() == master.substream(2**64 - 1).uniform()


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


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_rows_in_blocks_equal_one_pass(n):
    block, lo = StreamUniformBlock(2**63 + 5, 3), 2**64 - 3 * BLOCK_ROWS
    rows = block.rows(lambda u: u, lo, lo + n, np.empty((n, 3)))
    assert rows.tobytes() == block.take(lo, n).tobytes()


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


def test_counts_and_start_are_rejected_not_coerced():
    stream, block = RngStream(0), StreamUniformBlock(0, 2)
    for bad in (2.9, True, 2.0, "2"):
        for call in (lambda: StreamUniformBlock(0, bad), lambda: block.take(bad, 2),
                     lambda: block.take(1, bad), lambda: stream.uniforms(bad),
                     lambda: stream.normals(bad)):
            with pytest.raises(TypeError):
                call()
    for call in (lambda: StreamUniformBlock(0, -1), lambda: block.take(0, -1),
                 lambda: stream.uniforms(-1), lambda: stream.normals(-1)):
        with pytest.raises(ValueError):
            call()
    assert block.take(np.uint64(3), np.int64(2)).tobytes() == block.take(3, 2).tobytes()
    assert stream.uniforms(np.int32(0)).shape == (0,)


_GBM, _HIA = GbmParams(1.0, 0.05, 0.2), dict(n_agents=12, noise_std=0.3, steps=3)
_COUNTED = {
    "n_agents": lambda k: HiaParams(**{**_HIA, "n_agents": k}),
    "steps": lambda k: HiaParams(**{**_HIA, "steps": k}),
    "killed_n": lambda k: sample_killed_batch(_GBM, KillSchedule(0.01), k, 0),
    "terminal_n": lambda k: sample_terminal_log_batch(_GBM, 1.0, k, 0),
    "n_steps": lambda k: euler_path(_GBM, 1.0, k, RngStream(0)),
    "n_seeds": lambda k: run_sweep(HiaParams(**_HIA), "noise_std", [0.1, 0.2], k, 0),
}


@pytest.mark.parametrize("count", _COUNTED)
def test_model_and_sampler_counts_are_rejected_not_truncated(count):
    call = _COUNTED[count]
    for bad in (12.9, 2.5, True, 2.0, "2"):
        with pytest.raises(TypeError, match="must be an integer"):
            call(bad)
    call(np.int64(2))  # a numpy integer is an integer


def test_repr_names_the_child_and_rebuilds_it():
    parent = RngStream(5, 2)
    child = parent.substream(3)
    assert repr(parent) == "RngStream(seed=5, stream_id=2)"
    assert repr(child) == "RngStream(seed=5, stream_id=2).substream(3)"
    assert eval(repr(child)).uniform() == child.uniform()
    assert eval(repr(parent)).uniform() == parent.uniform()


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [0, 2**33, 2**64 - 1])
def test_child_keys_equal_seed_sequence_keys(seed, stream_id):
    for first, n in ((0, 300), (2**32 - 40, 40)):
        k0, k1 = _child_keys(seed, stream_id, n, first)
        assert k0.dtype == k1.dtype == np.uint64 and k0.shape == k1.shape == (n,)
        for i in range(n):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, first + i))
            assert [k0[i], k1[i]] == list(ss.generate_state(2, np.uint64))


def test_child_keys_need_children_below_2_to_the_32():
    # each check fails before any key array exists
    for first, n in ((0, 2**32 + 1), (2**32 - 1, 2), (2**32, 1)):
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            _child_keys(0, 0, n, first)
    assert _child_keys(0, 0, 1, 2**32 - 1)[0].shape == (1,)
    with pytest.raises(TypeError):
        _child_keys(0, 0, 2.0)


@pytest.mark.parametrize("words", [1, 2, 3, 4])
def test_broadcast_philox_equals_numpy_philox(words):
    """A column of counters against rows of keys, and a scalar k0 against an
    array k1, give the words of numpy's Philox blocks past its first."""
    k0, k1 = _child_keys(2**40 + 3, 2**33, 25)
    k0[0] = k1[1] = 2**64 - 1  # a key schedule that wraps at once
    counters = np.arange(3, 12, dtype=np.uint64)[:, None]
    got = np.stack(_philox4x64(counters, k0, k1, words), axis=-1)  # (block, key, word)
    scalar_k0 = np.stack(_philox4x64(7, 2**64 - 1, k1, words), axis=-1)
    for i in range(25):
        raw = np.random.Philox(key=[k0[i], k1[i]]).random_raw(4 * 11).reshape(11, 4)
        assert got[:, i].tobytes() == raw[2:, :words].tobytes()  # numpy's block c is row c - 1
        raw = np.random.Philox(key=[2**64 - 1, k1[i]]).random_raw(4 * 7).reshape(7, 4)
        assert scalar_k0[i].tobytes() == raw[6, :words].tobytes()


def _substream_draws(seed, stream_id, n, lo, hi):
    """Draws lo..hi-1 of substreams 0..n-1, step-major, from stream objects."""
    rows = [RngStream(seed, stream_id).substream(i).uniforms(hi)[lo:] for i in range(n)]
    return np.array(rows).reshape(n, hi - lo).T


# mid-block start and end, inside one block, whole blocks, hi == lo
_RANGES = [(3, 14), (5, 7), (4, 8), (0, 1), (1, 9), (6, 6), (8, 8)]


@pytest.mark.parametrize("lo, hi", _RANGES)
@pytest.mark.parametrize("n", [0, 1, 9])
def test_uniforms_equal_substream_draws(lo, hi, n):
    got = _uniforms(*_child_keys(2**40 + 3, 7, n), lo, hi)
    assert got.shape == (hi - lo, n)
    assert got.tobytes() == _substream_draws(2**40 + 3, 7, n, lo, hi).tobytes()


@pytest.mark.parametrize("lo, hi", _RANGES)
@pytest.mark.parametrize("n", [0, 1, 9])
def test_uniforms_with_a_one_element_shared_key_equal_the_block(lo, hi, n):
    seed, start = 2**64 - 1, 2**64 - 20
    ids = np.arange(n, dtype=np.uint64) + np.uint64(start)
    got = _uniforms(seed, ids, lo, hi)
    assert got.shape == (hi - lo, n)
    assert got.T.tobytes() == StreamUniformBlock(seed, hi).take(start, n)[:, lo:].tobytes()
    for j in range(n):
        assert got[:, j].tobytes() == RngStream(seed, start + j).uniforms(hi)[lo:].tobytes()


@pytest.mark.parametrize("n", [1, 2, 30])
def test_uniforms_in_7_cell_chunks_equal_one_pass(monkeypatch, n):
    """Chunks of 7 counters x keys, keys split mid-chunk, give the same bytes."""
    keys = _child_keys(8, 0, n)
    ids = np.arange(n, dtype=np.uint64)
    whole = [_uniforms(*keys, 3, 45), _uniforms(5, ids, 1, 30), _uniforms(5, ids, 0, 2)]
    monkeypatch.setattr(rng, "BLOCK_ROWS", 7)
    chunked = [_uniforms(*keys, 3, 45), _uniforms(5, ids, 1, 30), _uniforms(5, ids, 0, 2)]
    assert [c.tobytes() for c in chunked] == [w.tobytes() for w in whole]
    assert whole[0].tobytes() == _substream_draws(8, 0, n, 3, 45).tobytes()


def test_a_range_in_one_block_computes_its_words_under_a_one_element_key(monkeypatch):
    """A shared seed broadcast to every stream would make each round's key add
    n elements long; a width-2 block needs two words of one Philox block."""
    calls = []

    def recording(counter, k0, k1, words):
        calls.append((np.size(counter), np.size(k0), np.size(k1), words))
        return _philox4x64(counter, k0, k1, words)

    monkeypatch.setattr(rng, "_philox4x64", recording)
    StreamUniformBlock(5, 2).take(0, 100)
    _uniforms(*_child_keys(5, 0, 100), 9, 11)
    assert calls == [(1, 1, 100, 2), (1, 100, 100, 3)]
