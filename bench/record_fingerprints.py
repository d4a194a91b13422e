"""Write fingerprints.json from the program as it is now.

    python3 bench/record_fingerprints.py

Run it only in a change that means to move the reference outputs; a change
that claims a speed-up must leave fingerprints.json as it is.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

TOLERANCES = {
    "energy_rtol": 1e-9,
    "energy_atol": 1e-12,
    "growth_tensor_atol": 1e-8,
    "fraction_atol": 1e-9,
}


def main():
    run.pin_blas_threads()
    run.import_program()
    import workloads

    record = {"tolerances": TOLERANCES}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as out_dir:
        for name, workload in workloads.WORKLOADS.items():
            if isinstance(workload, workloads.RelaxWorkload):
                record[name] = {}
                for seed in range(workloads.INPUT_SEEDS):
                    workload.setup(seed)
                    result = workload.run_pass(out_dir)
                    record[name][str(seed)] = {"unconverged": result.unconverged, "energies": result.energies}
                    print(f"{name} seed {seed}: unconverged {result.unconverged}", file=sys.stderr)
                continue
            workload.setup(0)
            result = workload.run_pass(out_dir)
            if result.failed:
                raise SystemExit(f"{name}: {result.notes}")
            outputs = workload.outputs(out_dir)
            outputs.pop("fit_sse", None)
            outputs.pop("oned_ns", None)
            record[name] = outputs
            print(f"{name}: recorded", file=sys.stderr)
    path = Path(__file__).with_name("fingerprints.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
