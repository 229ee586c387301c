import pytest

from fixsettle import example_system

CASE1 = (0.8, 0.5, 0.4, 1.1)


@pytest.fixture
def case1_system():
    return example_system(*CASE1)


@pytest.fixture
def halving_system():
    from fixsettle import affine_system

    return affine_system([[0.5]], name="halving")


@pytest.fixture
def doubling_system():
    from fixsettle import affine_system

    return affine_system([[2.0]], name="doubling")


@pytest.fixture
def identity_system():
    from fixsettle import affine_system

    return affine_system([[1.0]], name="identity")


def mp_example_orbit(x0, params, steps, dps=60):
    """High-precision reference orbit of the benchmark map (mpmath).

    Starts from the exact binary values of the float ``x0`` and parameters,
    so it differs from the float map only by the float map's own rounding.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, b, r1, r2 = (mp.mpf(float(p)) for p in params)
        x = mp.mpf(float(x0))
        out = [x]
        for _ in range(steps):
            if x == 0:
                out.append(mp.mpf(0))
                continue
            m = max(a * abs(x) ** r1, b * abs(x) ** r2)
            x = x - mp.sign(x) * m
            out.append(x)
        return [float(v) for v in out]
