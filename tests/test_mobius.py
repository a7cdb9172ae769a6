import numpy as np
import pytest

from hypcap.geom import HalfDisk, HalfPlaneHull
from hypcap.mobius import AnnulusError, require_annulus, t_y


def test_t_y_special_points():
    assert t_y(1.0, 1j) == pytest.approx(0.0, abs=1e-15)
    assert t_y(1.0, 3j) == pytest.approx(0.5, abs=1e-15)
    assert t_y(1.0, 0j) == pytest.approx(-1.0, abs=1e-15)


def test_t_y_rejects_bad_heights():
    for y in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="y must be positive and finite"):
            t_y(y, 1j)


def test_round_trip():
    rng = np.random.default_rng(0)
    for y in (1.0, 10.0, 100.0):
        z = rng.uniform(-5, 5, 50) + 1j * rng.uniform(0.01, 10, 50)
        w = t_y(y, z)
        back = 1j * y * (1.0 + w) / (1.0 - w)
        assert np.max(np.abs(back - z) / np.abs(z)) < 1e-12


def test_boundary_to_boundary():
    w = t_y(2.0, np.linspace(-10, 10, 41) + 0j)
    assert np.allclose(np.abs(w), 1.0, atol=1e-12)


def test_pushforward_annulus_check():
    A = HalfPlaneHull([HalfDisk(0, 1)])
    with pytest.raises(AnnulusError):
        require_annulus(A, 1.0)
    # (3 - 1)/(3 + 1) = 1/2 exactly: the image may touch |w| = 1/2
    with pytest.raises(AnnulusError):
        require_annulus(A, 3.0)
    require_annulus(A, 3.0001)
    require_annulus(A, 8.0)
    require_annulus(HalfPlaneHull([]), 1.0)
    # a bad y is a plain ValueError, not an AnnulusError naming a bound
    for S, y in ((A, float("nan")), (A, float("inf")), (A, 0.0), (HalfPlaneHull([]), -1.0)):
        with pytest.raises(ValueError, match="y must be positive and finite"):
            require_annulus(S, y)
