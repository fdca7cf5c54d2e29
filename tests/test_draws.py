"""A canary for the numpy draws that every golden digest rests on.

numpy keeps the streams of its bit generators stable across versions (NEP
19), but not the algorithms of the Generator methods that turn words into
draws. If an upgrade changes one of them, the golden tests fail without a
cause; this test names the method that moved. Its values were recorded
with numpy 2.4.
"""

import hashlib
from types import SimpleNamespace

import numpy as np

from byzdp import Dataset, gaussian_noise, initial_theta, sample_batch, worker_stream


def _digest(row):
    return hashlib.sha256(np.asarray(row, dtype="<i8").tobytes()).hexdigest()


def _batch(m, b, count, seed, round_no):
    return sample_batch(Dataset(np.zeros((m, 1))), b, count,
                        lambda w: worker_stream(seed, w, round_no, 0))


def _noise(d, s):
    """Two rows of noise as hex strings, so that the sign of a zero counts."""
    return [x.hex() for x in gaussian_noise(d, s, 2, lambda w: worker_stream(1, w, 1, 1)).flat]


def test_numpy_draws_are_the_pinned_values():
    moved = []

    def pin(method, got, want):
        if got != want:
            moved.append(f"{method}: got {got!r}, want {want!r}")

    for key, words in (
            (np.array([0, (3 << 34) | (1589 << 2)], dtype=np.uint64),
             [4331759606460888024, 12747536189198220474, 14014711199149326840,
              11536703904378316646]),
            (np.array([2**64 - 1, 2**63 + 12345], dtype=np.uint64),
             [16083333434348609872, 14534385368812422871, 8474384445005324936,
              274496443800996362])):
        pin("Philox.random_raw", np.random.Philox(key=key).random_raw(4).tolist(), words)
    # in the Floyd regime sample_batch draws from the raw words itself, as
    # choice does; the test of sample_batch against choice relies on this row
    floyd = [0, 3, 6, 7, 8, 9, 11, 13, 16, 17, 18, 19]
    pin("Generator.choice (Floyd regime)",
        np.sort(worker_stream(1, 0, 1, 0).choice(20, 12, replace=False)).tolist(), floyd)
    pin("sample_batch (Floyd regime, on Philox.random_raw)", _batch(20, 12, 1, 1, 1)[0].tolist(),
        floyd)
    # worker 3's row holds a Lemire rejection, which choice itself redraws
    pin("Generator.choice (a Lemire rejection)", _digest(_batch(4000, 512, 5, 0, 1589)[3]),
        "f2317c5caf7cd2e2b27f139c994209bcfed7664d967b0dcfd64a10e1bc733a62")
    pin("Generator.choice (tail-shuffle regime)", _digest(_batch(10001, 201, 1, 1, 1)[0]),
        "9ae74961295fdf3745bd798a6676b096d2197e2777d35276342b6bd18e5abfd2")
    pin("Generator.standard_normal", _noise(3, 0.37), [x.hex() for x in (
        0.15850887880817527, 0.030225048848241287, -0.5465139130084711,
        -0.07589867598926504, -0.4648544605775919, 0.3635630112708693)])
    pin("Generator.standard_normal at s = 5e-324", _noise(3, 5e-324),
        [x.hex() for x in (0.0, 0.0, -5e-324, 0.0, -5e-324, 5e-324)])
    config = SimpleNamespace(master_seed=7, model=SimpleNamespace(dim=4))
    pin("Generator.uniform", initial_theta(config).tolist(),
        [-0.13345151953319967, -0.10010803096964294, 0.34799838157360463,
         0.17355615215733977])
    assert not moved, "numpy draws moved:\n" + "\n".join(moved)
