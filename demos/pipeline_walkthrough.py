"""One full pass through the two-stage pipeline, step by step.

A small synthetic campaign: J=6 measured pairs, a multiplicative error
model with K=2 correlated error components shared across the batch.  We
transform the batch at the nominal error and at Q Monte Carlo error
draws, then combine with both constructions and look at what each one
reports.

The combined output holds the nominal estimate, Q synthesized replicates,
and the covariance the replicates were scaled from.  The replicate
scatter stacks two pieces: the spread of the per-draw batch means (the
shared error moving everything together) plus 1/J times the input
covariance (the synthesized within-batch piece).  The constructions
differ only in that second piece.
"""

import numpy as np

from mcombine import (
    CombineOutput,
    DataBatch,
    ErrorBatch,
    Normal,
    RngStream,
    combine,
    kernel_from_json,
    sample,
    sample_covariance,
    transform_stage,
)

J, K, Q = 6, 2, 400


def report(tag: str, out: CombineOutput) -> None:
    emp = sample_covariance(out.replicates)
    print(f"{tag} construction")
    print(f"  nominal              {np.array2string(out.nominal, precision=4)}")
    print(f"  input cov / J        {np.array2string(out.input_cov / J, precision=5, prefix=' ' * 23)}")
    print(f"  replicate cov        {np.array2string(emp, precision=5, prefix=' ' * 23)}\n")


def main():
    root = RngStream(7)
    y_law = Normal(mean=[1.0, 2.0], cov=[[0.20, 0.05], [0.05, 0.10]])
    s_law = Normal(mean=[1.0, 1.0], cov=[[0.050, 0.015], [0.015, 0.030]])

    data = DataBatch(sample(y_law, J, root.substream(0)))
    # each error draw is shared by all J vectors: one systematic error per draw
    errors = ErrorBatch(sample(s_law, Q, root.substream(1)))
    print(f"data batch: J={J} vectors of width K={K}; Q={Q} shared error draws\n")

    transformed = transform_stage(data, errors, kernel_from_json("multiplicative"), nu=s_law.mean_vector())
    print(f"nominal values (per vector):\n{np.array2string(transformed.nominals, precision=4)}\n")

    report("current", combine(transformed, root.substream(2), "current"))
    report("alternative", combine(transformed, root.substream(3), "alternative"))
    print(
        "The constructions share the combined nominal and differ only in"
        "\nthe covariance their replicates are scaled from: covariance of"
        "\nnominal values versus covariance of per-vector MC means.  The"
        "\nreplicate covariance exceeds input_cov/J by the spread the"
        "\nshared errors impose on the per-draw means."
    )


if __name__ == "__main__":
    main()
