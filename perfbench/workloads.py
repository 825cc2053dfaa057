"""Workload inputs for the koszulspec benchmark, drawn from a seed.

Each workload is a list of inputs; `calls()` turns one into the CLI calls
of a pass.  Seed 0 gives the inputs verbatim.  Any other seed rescales every variable,
x_i -> c_i*x_i with c_i drawn from 1..5, and draws the CLI `--seed` that
picks the generic splitting form; neither changes a table row or the
spectrum.  Adversarial inputs are never rescaled: their coefficient is the
point of them.
"""

from __future__ import annotations

import random

V2, V3, V4 = "x,y", "x,y,z", "x,y,z,w"

# p0*p1, the product of the two fixed primes the modular rank path uses
PRIME_PRODUCT = 2147483647 * 2147483629

# (label, command, poly, vars, kmax, twin).  `twin` marks an adversarial
# input: the polynomial over Q with the same answer, given in plain form.
WORKLOADS: dict[str, list[tuple[str, str, str, str, int | None, str | None]]] = {
    "tower_kernel": [
        ("ts_4_4_2", "spectrum", "x^2*y^2 + z^4 + w^4", V4, 17, None),
    ],
    # six draws of the scaling per pass: the exact echelon's cost depends on
    # the coefficients (two scalings of the Cayley cubic differ by 25 %,
    # while each repeats within 4 %), and averaging six draws keeps that
    # out of the spread between seeds
    "tower_echelon": [
        (f"cayley_{i}", "spectrum", "x*y*z + x*y*w + x*z*w + y*z*w", V4, 12, None)
        for i in range(1, 7)
    ],
    "table_modular": [
        ("fermat3_4", "invariants", "x^3 + y^3 + z^3 + w^3", V4, None, None),
        ("fermat4_4", "invariants", "x^4 + y^4 + z^4 + w^4", V4, None, None),
        ("cayley", "invariants", "x*y*z + x*y*w + x*z*w + y*z*w", V4, None, None),
        ("ts_4_4_1", "invariants", "x*y^3 + z^4 + w^4", V4, None, None),
        ("ts_4_4_2", "invariants", "x^2*y^2 + z^4 + w^4", V4, None, None),
    ],
    "curves": [
        ("xy", "spectrum", "x*y", V2, None, None),
        ("x3+y3", "spectrum", "x^3 + y^3", V2, None, None),
        ("x3y2+x2y3", "spectrum", "x^3*y^2 + x^2*y^3", V2, None, None),
        ("pencil2", "spectrum", "x^4*y^2 + x^2*y^4", V2, None, None),
        ("pencil3", "spectrum", "x^6*y^3 + x^3*y^6", V2, None, None),
        ("conic_pp", "spectrum", f"x^2 + {PRIME_PRODUCT}*y^2", V2, None, "x^2 + y^2"),
        ("xyz", "spectrum", "x*y*z", V3, None, None),
        ("fourlines", "spectrum", "x^2*y*z + x*y^2*z + x*y*z^2", V3, None, None),
        ("threenodes", "spectrum", "x^2*y^2 + x^2*z^2 + y^2*z^2", V3, None, None),
        ("twoa3", "spectrum", "x^2*y^2 + z^4", V3, None, None),
        ("cusp", "spectrum", "x^3 + y^2*z", V3, None, None),
        ("fermat4_3", "spectrum", "x^4 + y^4 + z^4", V3, None, None),
        ("ts_3_5_1", "spectrum", "x*y^4 + z^5", V3, None, None),
        ("ts_3_5_2", "spectrum", "x^2*y^3 + z^5", V3, None, None),
        ("fermat5_3", "spectrum", "x^5 + y^5 + z^5", V3, None, None),
        ("nonwh", "spectrum", "x^5 + y^5 + x^2*y^2*z", V3, None, None),
        ("twoa3_pp", "spectrum", f"x^2*y^2 + {PRIME_PRODUCT}*z^4", V3, None, "x^2*y^2 + z^4"),
    ],
}


def scale_poly(text: str, variables: list[str], scale: dict[str, int]) -> str:
    """Substitute x -> scale[x]*x in a sum of monomial terms written as
    `c*x^a*y^b` joined by ' + '."""
    terms = []
    for term in text.split(" + "):
        coeff = 1
        factors = []
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, exp = factor.partition("^")
            if name not in variables:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            coeff *= scale[name] ** int(exp or 1)
            factors.append(factor)
        terms.append("*".join(([str(coeff)] if coeff != 1 else []) + factors))
    return " + ".join(terms)


def calls(workload: str, seed: int) -> list[dict]:
    """The CLI calls of one pass over `workload` at `seed`, in order."""
    rng = random.Random(seed)
    out = []
    for label, command, poly, var_text, kmax, twin in WORKLOADS[workload]:
        variables = var_text.split(",")
        cli_seed = 0
        if seed:
            scale = {v: rng.randint(1, 5) for v in variables}
            cli_seed = rng.randrange(1000)
            if twin is None:
                poly = scale_poly(poly, variables, scale)
        argv = [command, poly, "--vars", var_text, "--seed", str(cli_seed), "--json"]
        if kmax is not None:
            argv[4:4] = ["--kmax", str(kmax)]
        out.append({"label": label, "argv": argv})
    return out
