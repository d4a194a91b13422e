import numpy as np

from growlat.homogenize import ConvergenceRow, ConvergenceStudy, FitResult


def fit(mse, gamma=1.0):
    return FitResult({"gamma_1": gamma}, mse, np.array([np.sqrt(mse)]), float(np.sqrt(mse)), 1, ())


def study(mse_small_n, mse_large_n):
    rows = (ConvergenceRow(16, fit(mse_small_n)), ConvergenceRow(32, fit(mse_large_n)))
    return ConvergenceStudy(rows, drift_tol=0.01)


def test_mse_rounding_difference_is_not_an_increase():
    mse = 6.2e-7
    s = study(mse, np.nextafter(mse, np.inf))
    assert not s.mse_increased
    assert s.drift == 0.0
    assert s.converged


def test_real_mse_increase_is_reported():
    s = study(6.2e-7, 6.3e-7)
    assert s.mse_increased
    assert not s.converged


def test_single_row_study_is_converged():
    s = ConvergenceStudy((ConvergenceRow(16, fit(1e-3)),), drift_tol=0.01)
    assert s.drift == 0.0 and not s.mse_increased and s.converged
