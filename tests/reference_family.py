"""The weight family one member at a time, as only the tests read it.

`build_weight_family` decides which members are flat for the whole grid
at once and builds the others one taper order at a time.  The tests
rebuild a family from its labels, one `pinsker_weights` row per member.
"""

import numpy as np

from driftsel.estimator import pinsker_weights


def member_profile(beta: int, scale: float, upsilon: float, cap: int) -> np.ndarray:
    """The profile of the member (beta, scale) alone: its one-row
    `pinsker_weights` block, with the zero padding trimmed."""
    return np.trim_zeros(pinsker_weights(beta, [scale], upsilon, cap)[0], "b")


def members(family) -> list:
    """The (beta, scale) label of every member of `family`, in grid
    order, as Python numbers."""
    return list(zip(family.beta.tolist(), family.scale.tolist()))
