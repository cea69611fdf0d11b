"""Deterministic primality testing and prime enumeration for sweep ranges."""

# the trial divisors and the Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin with a base set deterministic for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes_in(lo, hi):
    """All odd primes p with lo <= p <= hi, in increasing order."""
    start = max(lo, 3)
    if start % 2 == 0:
        start += 1
    return [p for p in range(start, hi + 1, 2) if is_prime(p)]
