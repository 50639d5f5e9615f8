"""The flag convolution algebra: closed-form products versus counting.

The product rule for a Chevalley-shaped left factor is a finite sum over
moving vectors with (v, t)-monomial weights and overlined Gaussian
binomials.  Rewritten on the plain orbit basis the coefficients must be
t-free with even v-powers -- and then they are literally counting
polynomials, checked here against the oracle at three primes.
"""

from vtschur import laurent, schur
from vtschur.laurent import ONE
from vtschur.matrices import diag, mat, theta_matrices, unit

n, d = 2, 2

# a product with a genuine binomial: {E_11 + E_12} * {E_11 + E_21}
B = mat([[1, 1], [0, 0]])
A = mat([[1, 0], [1, 0]])
prod = schur.lmul_braced(B, {A: ONE})
for M, c in prod.items():
    print("{B} * {A} ->", M, "coefficient", laurent.to_text(c))

# the full comparison against the counting oracle
results = schur.oracle_compare(n, d, primes=(3, 5, 7))
print("oracle comparison on %d pairs:" % len(results),
      "all exact" if all(ok for _, _, ok in results) else "MISMATCH")

# the defining relation suite of the convolution algebra
checks = schur.verify_relations(n, d)
genuine = [ok for name, ok in checks if not name.startswith("expect-fail")]
print("relation suite: %d checks," % len(genuine),
      "all pass" if all(genuine) else "failures!")

# triangular factorizations: every basis element is a product of
# one-entry factors plus strictly lower terms
A = mat([[0, 1], [1, 0]])
expansion, factors = schur.triangular_product(A)
print("factors for", A, ":", factors)
for M, c in expansion.items():
    print("   term", M, laurent.to_text(c))

# a general product through the faithful operator model
x = schur.gen_elt(("E", 1), n, d)
y = schur.gen_elt(("F", 1), n, d)
via_ops = schur.product_via_operators(x, y, n, d)
print("E_1 F_1 has", len(via_ops), "braced terms; matches direct rule:",
      schur.clean(via_ops) == schur.clean(schur.mul_gen(("E", 1), y, n, d)))
