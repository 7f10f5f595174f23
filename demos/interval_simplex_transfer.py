"""The interval operator as the n=1 simplex operator in disguise.

Under x -> (x+1)/2 the interval operator with weight (1-x)^a (1+x)^b turns
into the n=1 simplex operator with kappa = (b+1/2, a+1/2): operators
conjugate exactly, eigenfunctions match after a 2^(-(a+b+1)/2) rescale,
distances halve, and heat kernels rescale by 2^(-(a+b+1)).
"""

from polyheat import jacobi_simplex_correspondence

for a, b in [(-0.5, -0.5), (0.0, 0.0), (0.7, -0.3)]:
    rep = jacobi_simplex_correspondence(a, b, max_k=30)
    print(f"(alpha, beta) = ({a}, {b})")
    for c in rep.checks:
        print(f"   {c['name']:24s} residual {c['residual']:.2e}  {'ok' if c['pass'] else 'FAIL'}")
    print()
