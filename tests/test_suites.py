"""Batched suites against their per-trial loops, kept here as the oracles.

`norm-equivalence`, `embedding` and `algebra` draw every trial as a row of
one field and take one norm per size.  Each oracle below is the loop they
replaced: one `random_field` draw and scalar norms per trial, from the
parameters the batched run resolved.  The two reports must agree byte for
byte.
"""

import numpy as np
import pytest

from torusdiff.algebra import multiply
from torusdiff.grid import GridSpec, forward_transform, inverse_transform, random_field
from torusdiff.norms import (
    cr_norm,
    embedding_constant,
    hs_norm,
    hs_norm_derivative,
    norm_equivalence_constant,
)
from torusdiff.report import SuiteReport, check
from torusdiff.suites import run_suite


def norm_equivalence_per_trial(p):
    spec = GridSpec(p["dim"], p["size"])
    trials, aggregate, checks = [], {}, []
    for s in p["s_values"]:
        bound = norm_equivalence_constant(s, spec.dim)
        records = []
        for i in range(p["trials"]):
            F = random_field(spec, float(s), p["seed"] + i)
            ratio = hs_norm(F, float(s)) / hs_norm_derivative(inverse_transform(F), s)
            records.append({"s": s, "seed": p["seed"] + i, "ratio": ratio})
        ratios = np.array([rec["ratio"] for rec in records])
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if s <= 1:
            ours = [check(f"s={s} identity", float(np.max(np.abs(ratios - 1.0))),
                          p["tol_identity"], "<")]
        else:
            ours = [check(f"s={s} lower", lo, 1.0 - p["tol_bracket"], ">="),
                    check(f"s={s} upper", hi, bound * (1.0 + p["tol_bracket"]), "<=")]
        aggregate[f"s={s}"] = {"min_ratio": lo, "max_ratio": hi, "bound": bound,
                               "pass": all(c["pass"] for c in ours)}
        trials.extend(records)
        checks += ours
    return trials, aggregate, checks


def embedding_per_trial(p):
    spec = GridSpec(p["dim"], p["size"])
    bound = embedding_constant(spec, p["s"])
    records = []
    for i in range(p["trials"]):
        F = random_field(spec, p["s"] + p["r"], p["seed"] + i)
        ratio = cr_norm(inverse_transform(F), p["r"]) / hs_norm(F, p["s"] + p["r"])
        records.append({"seed": p["seed"] + i, "ratio": ratio})
    ratios = [rec["ratio"] for rec in records]
    aggregate = {"max_ratio": max(ratios), "min_ratio": min(ratios), "bound": bound,
                 "violations": int(sum(r > bound for r in ratios))}
    return records, aggregate, [check("max_ratio", max(ratios), bound, "<=")]


def algebra_per_trial(p):
    envelopes, trials = {}, []
    for size in p["sizes"]:
        spec = GridSpec(p["dim"], size)
        ratios = []
        for i in range(p["trials"]):
            f = random_field(spec, p["s"], p["seed"] + 2 * i)
            g = random_field(spec, p["s_prime"], p["seed"] + 2 * i + 1)
            fg = multiply(inverse_transform(f), inverse_transform(g))
            ratios.append(hs_norm(forward_transform(fg), p["s_prime"])
                          / (hs_norm(f, p["s"]) * hs_norm(g, p["s_prime"])))
        envelopes[size] = max(ratios)
        trials.append({"size": size, "envelope": envelopes[size]})
    values = np.array(list(envelopes.values()))
    mean = float(np.mean(values))
    spread = float(np.max(np.abs(values - mean)) / mean)
    checks = [check("relative_spread", spread, p["stability"], "<=")]
    if p["k_max"] is not None:
        checks.append(check("max_envelope", float(np.max(values)), p["k_max"], "<="))
    aggregate = {"envelopes": {str(k): v for k, v in envelopes.items()}, "mean": mean,
                 "relative_spread": spread, "stability": p["stability"], "k_max": p["k_max"]}
    return trials, aggregate, checks


# (suite, its default seed, its per-trial oracle, T^2 parameters small enough for a test)
CASES = [
    ("norm-equivalence", 1, norm_equivalence_per_trial, {"size": 16, "trials": 20}),
    ("embedding", 3, embedding_per_trial, {"size": 16, "s": 1.5, "trials": 20}),
    ("algebra", 9, algebra_per_trial, {"sizes": [16, 32], "trials": 10, "k_max": 10.0}),
]


@pytest.mark.parametrize("name, seed, oracle, t2", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("offset", [0, 100000])
def test_batched_suite_equals_its_per_trial_loop(name, seed, oracle, t2, dim, offset):
    params = {"seed": seed + offset, **({"dim": 2, **t2} if dim == 2 else {})}
    got = run_suite(name, params)
    trials, aggregate, checks = oracle(got.params)
    want = SuiteReport(name, got.params, trials, aggregate, checks,
                       all(c["pass"] for c in checks))
    assert got.comparison_bytes() == want.comparison_bytes()
