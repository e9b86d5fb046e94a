"""The parameter store and the convolution layer drawing from it."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.errors import ContractError


def store():
    return en.Params(np.random.default_rng(0), np.float32)


def test_duplicate_name_refused():
    params = store()
    en.Conv2d("t.conv", params, 2, 3, (1, 1))
    with pytest.raises(ContractError, match=r"duplicate parameter name t\.conv\.w"):
        en.Conv2d("t.conv", params, 2, 3, (1, 1))


def test_zero_fan_in_refused():
    with pytest.raises(ContractError, match="fan_in"):
        en.Conv2d("t.conv", store(), 0, 3, (1, 1))
