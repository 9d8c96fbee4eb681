# Local zero counts and Euler products
# ====================================
#
# The arithmetic half of every density prediction is an Euler product of
# local factors, one per prime.  Each factor is built from N_p (zeros of f
# modulo p) or N_{p^2} (zeros modulo p^2), counted exactly.

import math

from polydensity import (
    count_zeros_mod,
    euler_product,
    joint_euler_factor,
    parse_polynomial,
    prime_euler_factor,
    squarefree_euler_factor,
)

f = parse_polynomial("x1^2 + x2^2", 2)

# N_p for the sum of two squares: the count depends on p mod 4.
for p in (3, 5, 7, 11, 13):
    print(f"N_{p} =", count_zeros_mod(f, p))

# The prime-mode local factor is (1 - N_p / p^n) / (1 - 1/p); the
# squarefree-mode factor is 1 - N_{p^2} / p^{2n}.  Both are exact
# rationals.
print("\nprime factor at 3      =", prime_euler_factor(f, 3))
print("squarefree factor at 3 =", squarefree_euler_factor(f, 3))

# Sanity anchor: for f = x1 the squarefree product is 1/zeta(2) = 6/pi^2.
linear = parse_polynomial("x1", 1)
est = euler_product(linear, "squarefree", cutoff=10**4)
print("\nproduct over p <= 1e4  =", est.value)
print("6/pi^2                 =", 6 / math.pi**2)
print("tail bound             =", est.tail_bound)

# Joint mode: the local factor for the twin pair (x, x+2) at odd p is
# (1 - 2/p) / (1 - 1/p)^2, and the full product converges to the twin
# constant ~1.3203.
f1, f2 = parse_polynomial("x1", 1), parse_polynomial("x1 + 2", 1)
print("\njoint factor at 5 =", joint_euler_factor([f1, f2], 5))
twins = euler_product([f1, f2], "joint", cutoff=10**4)
print("twin constant     =", twins.value)
