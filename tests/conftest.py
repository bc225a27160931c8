import numpy as np
import pytest

from ruleloc.core import BinaryDataset, bitset_of


def pack_bool(values) -> int:
    return int.from_bytes(
        np.packbits(np.asarray(values, dtype=bool), bitorder="little").tobytes(),
        "little",
    )


def random_dataset(rng, n, d, density=0.3, pos_rate=0.2) -> BinaryDataset:
    matrix = rng.random((n, d)) < density
    labels = rng.random(n) < pos_rate
    if not labels.any():
        labels[0] = True
    coverage = tuple(pack_bool(matrix[:, j]) for j in range(d))
    return BinaryDataset(n, coverage, pack_bool(labels))


@pytest.fixture
def toy_dataset() -> BinaryDataset:
    """20 positives (0..19), 100 negatives (20..119) and three features:

    A covers positives 0..9 plus negative 20, B the other ten positives
    plus negative 21, C positives 0..17 plus negatives 22..26.
    """
    a = bitset_of(range(10)) | bitset_of([20])
    b = bitset_of(range(10, 20)) | bitset_of([21])
    c = bitset_of(range(18)) | bitset_of(range(22, 27))
    return BinaryDataset(120, (a, b, c), bitset_of(range(20)))
