"""Regenerate expected.json: the seed-0 fingerprint of every input, beside
the verdicts the corpus and the case parameters declare.

    python3 galbench/make_expected.py

Run it only when an input is added or removed; the fingerprints are
independent of the seed, which the benchmark's own test checks.
"""
import json

import run
import workloads


def main() -> None:
    doc = {}
    for workload, job in workloads.JOBS.items():
        entries = doc[workload] = {}
        for key, text, declared in run.build_inputs(workload, 0):
            answer = workloads.run_input(job, text, 0)
            entries[key] = {"fingerprint": answer["fingerprint"], **declared}
            problems = workloads.mismatches(answer, entries[key])
            if problems:
                raise SystemExit(f"{workload} {key}: {problems}")
            print(workload, key, answer["fingerprint"]["order"], flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
