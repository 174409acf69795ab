"""Seeded uniform streams: rows seeded from the array hash against NumPy's
per-row path."""

from unittest import mock

import numpy as np
import pytest

from qcurves import DomainError, SimulationConfig, ad_test, load_guinea_pigs, run_simulation
from qcurves._streams import STREAMS, seeded_uniforms
from qcurves.cli import main

PREFIXES = [(), (0,), (2**32,), (2**70 + 5, 3), (20260822, 1, 0)]
INDICES = [0, 1, 2**31, 2**32 - 1]


def numpy_rows(prefix, indices, n):
    """Row i is ``Generator(PCG64(SeedSequence(prefix + (i,)))).random(n)``."""
    out = np.empty((len(indices), n))
    for row, i in zip(out, indices):
        seq = np.random.SeedSequence(prefix + (i,))
        row[:] = np.random.Generator(np.random.PCG64(seq)).random(n)
    return out


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 1000])
@pytest.mark.parametrize("prefix", PREFIXES)
def test_rows_equal_numpy_streams_bitwise(prefix, n):
    got = seeded_uniforms(prefix, INDICES, n)
    assert got.shape == (len(INDICES), n)
    assert got.tobytes() == numpy_rows(prefix, INDICES, n).tobytes()


def test_a_range_of_indices_equals_numpy_streams_bitwise():
    got = seeded_uniforms((7, 2, 1), range(300, 340), 130)
    assert got.tobytes() == numpy_rows((7, 2, 1), range(300, 340), 130).tobytes()


@pytest.mark.parametrize("indices", [
    [5, 2**32 - 1, 0, 3, 1],  # unsorted
    [9, 9, 4, 9, 4],  # repeated
    np.array([17, 2**31 + 3, 6], dtype=np.int64),
    np.array([0, 2**32 - 2, 11], dtype=np.uint32),
    np.array([8, 1], dtype=np.uint8),
])
def test_any_index_order_or_integer_array_equals_numpy_streams_bitwise(indices):
    got = seeded_uniforms((7, 2), indices, 70)
    want = numpy_rows((7, 2), [int(i) for i in indices], 70)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("prefix", PREFIXES)
def test_zero_rows(prefix):
    assert seeded_uniforms(prefix, [], 30).shape == (0, 30)
    assert seeded_uniforms(prefix, range(5, 5), 30).shape == (0, 30)


@pytest.mark.parametrize("indices", [[STREAMS], [0, STREAMS + 7], [-1], [2**70]])
def test_an_index_outside_one_entropy_word_raises(indices):
    with pytest.raises(DomainError, match="stream indices"):
        seeded_uniforms((3,), indices, 10)


def test_replicate_counts_are_bounded_by_the_streams():
    # replication and replicate indices run below 2**32, one stream each
    assert SimulationConfig(replications=STREAMS).replications == STREAMS
    with pytest.raises(DomainError, match="replications"):
        SimulationConfig(replications=STREAMS + 1)
    with pytest.raises(DomainError, match="bootstrap replicates"):
        ad_test(load_guinea_pigs()["control"], bootstrap_reps=STREAMS + 1)


@pytest.mark.parametrize("command", ["simulate", "gof"])
def test_too_many_replicates_exit_3(command, tmp_path, capsys):
    path = tmp_path / "data.txt"
    path.write_text("1.0\n2.0\n3.0\n4.5\n")
    extra = ["--data", str(path)] if command == "gof" else []
    assert main([command, *extra, "--reps", str(STREAMS + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_study_and_bootstrap_build_no_generator_per_replicate():
    # 20 study replicates in one chunk and 30 resamples in one bootstrap
    # block: two draws, neither building a generator per replicate
    config = SimulationConfig(betas=(1.0,), sizes=(10,), replications=20,
                              estimators=("hf", "ml"), master_seed=5)
    control = load_guinea_pigs()["control"]
    built = {"PCG64": 0, "Generator": 0}

    def counting(name):
        cls = getattr(np.random, name)

        def build(*args, **kwargs):
            built[name] += 1
            return cls(*args, **kwargs)

        return mock.patch.object(np.random, name, build)

    with mock.patch.object(np.random, "SeedSequence", side_effect=AssertionError), \
            counting("PCG64"), counting("Generator"):
        run_simulation(config)
        ad_test(control, bootstrap_reps=30, seed=4)
    assert all(count <= 2 for count in built.values()), built
