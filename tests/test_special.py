from __future__ import annotations

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as spst
from hypothesis import given
from hypothesis import strategies as st

from blindeval.special import beta_inc, chi2_sf, gamma_q, normal_sf, student_t_two_sided


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.5, 25.0, 120.0])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 4.0, 17.5, 80.0, 300.0])
def test_incomplete_gamma_matches_scipy(a, x):
    assert gamma_q(a, x) == pytest.approx(sps.gammaincc(a, x), abs=1e-13)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (2.5, 7.5), (10.0, 10.0), (60.0, 0.5)])
@pytest.mark.parametrize("x", [0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0])
def test_incomplete_beta_matches_scipy(a, b, x):
    assert beta_inc(a, b, x) == pytest.approx(sps.betainc(a, b, x), abs=1e-13)


@pytest.mark.parametrize("df", [1, 3, 15, 40, 239])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 32.85, 100.0])
def test_chi2_tail_matches_scipy(df, x):
    assert chi2_sf(x, df) == pytest.approx(spst.chi2.sf(x, df), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("df", [1, 2, 8, 30, 238])
@pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 5.5, -3.3])
def test_student_t_two_sided_matches_scipy(df, t):
    expected = 2 * spst.t.sf(abs(t), df)
    assert student_t_two_sided(t, df) == pytest.approx(expected, rel=1e-10, abs=1e-14)


@given(st.floats(min_value=-8, max_value=8))
def test_normal_sf_matches_erfc_identity(z):
    assert normal_sf(z) == pytest.approx(spst.norm.sf(z), rel=1e-12, abs=1e-16)


@given(st.floats(min_value=0.1, max_value=50), st.floats(min_value=0, max_value=200))
def test_gamma_q_matches_scipy_over_its_domain(a, x):
    assert gamma_q(a, x) == pytest.approx(sps.gammaincc(a, x), abs=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        gamma_q(-1.0, 2.0)
    with pytest.raises(ValueError):
        gamma_q(1.0, -2.0)
    with pytest.raises(ValueError):
        beta_inc(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_extreme_tails_stay_in_unit_interval():
    assert 0.0 <= chi2_sf(1000.0, 3) <= 1e-200
    assert chi2_sf(0.0, 5) == 1.0
    assert student_t_two_sided(float("inf"), 10) == 0.0
    assert normal_sf(40.0) >= 0.0


def test_against_numpy_quadrature():
    # integrate the chi-square density directly as one more route
    from numpy import trapezoid

    df, x = 5, 9.0
    grid = np.linspace(x, 400, 400_001)
    pdf = spst.chi2.pdf(grid, df)
    assert chi2_sf(x, df) == pytest.approx(float(trapezoid(pdf, grid)), abs=1e-8)
