"""Record reference fingerprints for the benchmark's correctness check.

    python3 bench/make_reference.py

For every workload and seeds 0-31 this fits once, runs one ``mise`` and
one ``ape`` pass, and writes their fingerprints to ``reference.json``.
Run it only at a commit whose estimates are known good; ``run.py`` then
fails every operation that drifts from them.
"""

import json

import run  # sets the BLAS thread count before numpy loads

SEEDS = range(32)


def entry(w, name, seed):
    train, truth = w.make_inputs(name, seed)
    res = w.fit(train)
    out = {"fit": w.fit_fingerprint(res, truth)}
    for kind, op in w.PREDICT_OPS.items():
        out[kind] = w.pass_fingerprint(kind, [op(res, truth)])
    return out


def main():
    run.import_package()
    import workloads as w

    table = {}
    for name in w.WORKLOADS:
        for seed in SEEDS:
            table.setdefault(name, {})[str(seed)] = entry(w, name, seed)
            print(name, seed, flush=True)
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
