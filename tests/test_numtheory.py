import pytest

from sylowcover.errors import DomainError, NotPrimePower
from sylowcover.numtheory import (
    MILLER_RABIN_BOUND,
    factorization,
    is_prime,
    p_part,
    prime_power_decomposition,
)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if trial_division_is_prime(n)
    ]


def test_is_prime_large():
    # a strong pseudoprime to every prime base 2 ... 23
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * 1_000_003)
    assert not is_prime(10**30)  # a small factor settles it below or above the bound
    with pytest.raises(DomainError):
        is_prime(2**89 - 1)
    assert 2**89 - 1 >= MILLER_RABIN_BOUND > 2**61 - 1


def test_factorization():
    assert factorization(181440) == [(2, 6), (3, 4), (5, 1), (7, 1)]
    assert factorization(1) == []
    assert factorization(97) == [(97, 1)]


def test_factorization_round_trip():
    for n in range(1, 2000):
        product = 1
        for p, e in factorization(n):
            product *= p**e
        assert product == n


def test_p_part():
    assert p_part(40320, 2) == 128
    assert p_part(40320, 3) == 9
    assert p_part(35, 2) == 1


@pytest.mark.parametrize("n, p", [(0, 2), (-8, 2), (12, 1), (12, 0)])
def test_p_part_domain(n, p):
    # n = 0 and p = 1 used to loop forever, p = 0 divided by zero, and a
    # negative n returned a power of p
    with pytest.raises(DomainError):
        p_part(n, p)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(17) == (17, 1)
    with pytest.raises(NotPrimePower):
        prime_power_decomposition(12)


def test_prime_power_decomposition_matches_factorization():
    for q in range(2, 5000):
        factors = factorization(q)
        if len(factors) == 1:
            assert prime_power_decomposition(q) == factors[0]
        else:
            with pytest.raises(NotPrimePower):
                prime_power_decomposition(q)


def test_prime_power_decomposition_large():
    assert prime_power_decomposition(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power_decomposition(3**40) == (3, 40)
    assert prime_power_decomposition(2**200) == (2, 200)
    assert prime_power_decomposition((2**61 - 1) ** 3) == (2**61 - 1, 3)
    with pytest.raises(NotPrimePower):
        prime_power_decomposition(6**30)
    with pytest.raises(NotPrimePower):
        prime_power_decomposition((2**31 - 1) * 1_000_003)


def test_is_prime_power():
    assert prime_power_decomposition(27) == (3, 3)
    with pytest.raises(NotPrimePower):
        prime_power_decomposition(6)
