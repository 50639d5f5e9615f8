"""The brute-force ground truth: flags over F_p, orbits, counted products.

Nothing here knows any closed formula.  Flags are enumerated literally,
pairs are classified by their relative-position matrix (every type is met
from the standard flag of each dimension vector, since GL_d(F_p) moves any
flag there), and products are the number of middle flags -- the numbers
every formula in the library has to reproduce.
"""

import math

from vtschur import flags
from vtschur.matrices import diag, mat, unit

p, n, d = 3, 2, 2

X = flags.enum_flags_X(p, d, n)
Y = flags.enum_flags_Y(p, d)
print("n-step flags over F_%d:    %d" % (p, len(X)))
print("complete flags over F_%d:  %d  (expected (q+1) = %d)" % (p, len(Y), p + 1))

xy_types = flags.orbit_types(p, d, n, ("X", "Y"))
yy_types = flags.orbit_types(p, d, n, ("Y", "Y"))
print("X*Y orbit types: %d = n^d = %d" % (len(xy_types), n ** d))
print("Y*Y orbit types: %d = d! = %d" % (len(yy_types), math.factorial(d)))

# one genuinely quantum count: the middle flag ranges over a projective line
B = mat([[1, 1], [0, 0]])
A = mat([[1, 0], [1, 0]])
print("count for B * A:", flags.convolve_count(B, A, p, d, n), " (q + 1 = %d)" % (p + 1))

# the dimension bookkeeping behind the braced normalization
from vtschur.matrices import dim_stats

for M in (diag((1, 1)), unit(2, 1, 2), mat([[0, 1], [1, 0]])):
    stab_dim, orbit_dim, dmr = dim_stats(M)
    print("matrix %r: stabilizer %d + orbit %d = %d; d - r = %d"
          % (M, stab_dim, orbit_dim, stab_dim + orbit_dim, dmr))
