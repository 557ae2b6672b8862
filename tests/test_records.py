"""Records with array fields compare and hash by identity."""

import numpy as np
import pytest

from covact import (
    ChannelRealization,
    Codebook,
    FadingVector,
    MlTrace,
    NnlsResult,
    SkcReport,
    StackedRealMatrix,
)
from covact.experiments import VerifiedCodebook

RECORDS = {
    "Codebook": lambda: Codebook(np.eye(2)),
    "StackedRealMatrix": lambda: StackedRealMatrix(np.eye(2)),
    "FadingVector": lambda: FadingVector(np.array([1.0, 0.0]), 1),
    "ChannelRealization": lambda: ChannelRealization(Y=np.eye(2), H=np.eye(2), E=np.zeros((2, 2))),
    "NnlsResult": lambda: NnlsResult(z=np.zeros(2), residual=0.0, kkt_residual=0.0, iterations=0),
    "MlTrace": lambda: MlTrace(np.ones(2), np.zeros(2), np.eye(2), 0.0, 0.0, 1),
    "SkcReport": lambda: SkcReport(1, 0.5, 0.5, np.zeros(2), np.ones(2), "exact-enumeration"),
    "VerifiedCodebook": lambda: VerifiedCodebook(Codebook(np.eye(2)), (), 1),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_equality_and_hash_are_identity(make):
    a, b = make(), make()
    assert a == a and hash(a) == hash(a)
    assert a != b
    assert len({a, b}) == 2
