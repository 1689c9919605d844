"""Empirically auditing the identities the bias analysis rests on.

Every closed form in the analytics module leans on a small stack of
matrix and variance identities: how sample covariances transform, what
the rotation factor of an eigendecomposition reproduces, and the exact
variance of a sample variance under normal noise.  Each has a seeded
Monte Carlo check that estimates both sides on fresh random instances
and reports a z-score; |z| <= 3 is the usual pass line.  Each check is
one seeded ``lemma_check`` config, which names the identity it audits.
"""

from mcombine.experiments import ExperimentConfig, verify_lemma

DESCRIPTIONS = {
    1: "expected sample covariance of correlated vector draws",
    2: "rotation factor reproduces the covariance it was built from",
    3: "synthesized replicates carry the prescribed covariance",
    4: "combine-stage covariance identity for multiplicative errors",
    5: "variance of a sample variance with dispersed means",
}


def main():
    print("supporting identities, 100,000 instances each\n")
    for lid in (1, 2, 3, 4):
        res = verify_lemma(
            ExperimentConfig(
                estimand="lemma_check", trials=100_000, master_seed=0, salt=lid, lemma_id=lid
            )
        )
        print(f"identity {lid}: max|z| = {res.max_abs_z():.2f}   ({DESCRIPTIONS[lid]})")
    for u2, n in ((0.0, 2), (2.0, 11)):
        res = verify_lemma(
            ExperimentConfig(
                estimand="lemma_check",
                trials=100_000,
                master_seed=0,
                salt=10 + n,
                lemma_id=5,
                lemma_u2=u2,
                lemma_n=n,
            )
        )
        print(f"identity 5 (u2={u2}, N={n:>2}): |z| = {res.max_abs_z():.2f}   ({DESCRIPTIONS[5]})")


if __name__ == "__main__":
    main()
