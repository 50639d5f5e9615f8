"""Parity projectors and the Galois-style descent to the (r, s) form.

The projectors split tensor space by the parity of entries below the cut
(the refined family also bans the value m+1); their relation catalogs hold
exactly, with the documented printed-variant discrepancies reported rather
than patched.  The sign involution (v, t) -> (-v, -t), E -> -E then carves
out the classical two-parameter form: the twisted generators are fixed and
every descended coefficient rewrites over r = vt, s = v^{-1}t.
"""

from vtschur import galois, jparity, laurent, schur, tensor
from vtschur.laurent import ONE, T, V

n, d, m = 3, 2, 1

tilde = jparity.verify_tilde_relations(n, d, m)
genuine = [ok for name, ok in tilde if not name.startswith("expect-fail")]
xfails = [name for name, ok in tilde if name.startswith("expect-fail") and not ok]
print("plain projector catalog:", "all pass" if all(genuine) else "fail",
      "| printed variants refuted:", len(xfails))

hat = jparity.verify_hat_relations(n, d, m)
genuine = [ok for name, ok in hat if not name.startswith("expect-fail")]
print("refined projector catalog (r1)-(r7):", "all pass" if all(genuine) else "fail")

print("projector as a diagonal flag element matches its operator:",
      tensor.op_eq(schur.elt_op(jparity.j_schur_element("hat", "+", m, n, d), n, d),
                   jparity.j_operator("hat", "+", m, n, d)))

# descent
print("sigma fixes vt:", galois.sigma_poly(V * T) == V * T,
      "| flips v:", galois.sigma_poly(V) == -V)
print("equivariance:", all(ok for _, ok in galois.equivariance_check(2, 2)))

suite = galois.descent_suite(2, 2)
print("descent suite (fixed generators, descended relations, basis, Hecke):",
      "all pass" if all(ok for _, ok in suite) else "fail",
      "(%d checks)" % len(suite))

quad = laurent.to_rs(laurent.mono(1, 1) - laurent.mono(-1, 1))
print("the Hecke quadratic coefficient vt - v^{-1}t descends to", quad)
