"""Property tests over random configurations, drawn by hypothesis.

Polarization depends only on the gaps up to rotation and reflection, and a
transport plan carried to the end of its homotopy reproduces the target's
gaps.  Every drawn gap is at least 1e-3.
"""

import numpy as np
import pytest

from circlepol import (TWO_PI, Configuration, config_from_gaps, log_kernel,
                       polarization, power_kernel, riesz_kernel, solve_transport)
from helpers import cyclic_allclose, homotopy_stage

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MIN_GAP = 1e-3

SETTINGS = hypothesis.settings(deadline=None, derandomize=True, database=None)


@st.composite
def configurations(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 12))
    weights = np.array(draw(st.lists(st.floats(1.0, 100.0),
                                     min_size=n, max_size=n)))
    gaps = MIN_GAP + (TWO_PI - n * MIN_GAP) * weights / weights.sum()
    return config_from_gaps(gaps, anchor=draw(st.floats(0.0, TWO_PI)))


@pytest.mark.parametrize("kernel", [riesz_kernel(2), riesz_kernel(4),
                                    log_kernel(), power_kernel(0.5)],
                         ids=lambda k: k.label)
@SETTINGS
@hypothesis.given(config=configurations(), phi=st.floats(-10.0, 10.0))
def test_polarization_is_invariant_under_rotation_and_reflection(kernel, config,
                                                                 phi):
    value = polarization(kernel, config).value
    tol = 1e-12 * max(1.0, abs(value))
    rotated = Configuration(a + phi for a in config.angles)
    reflected = Configuration(-a for a in config.angles)
    assert abs(polarization(kernel, rotated).value - value) <= tol
    assert abs(polarization(kernel, reflected).value - value) <= tol


@SETTINGS
@hypothesis.given(data=st.data(), n=st.integers(1, 12))
def test_homotopy_ends_at_the_target_gaps(data, n):
    source = data.draw(configurations(n))
    target = data.draw(configurations(n))
    end = homotopy_stage(source, solve_transport(source, target), 1.0)
    assert cyclic_allclose(end.gaps, target.gaps, atol=1e-9)
