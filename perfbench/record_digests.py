"""Record the output digests that run.py checks, for DEFAULT_SEED.

Run from the repository root once, at a commit whose outputs are known
good, and commit the resulting digests.json:

    python3 perfbench/record_digests.py
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    previous = run.DIGESTS.read_text(encoding="utf-8") if run.DIGESTS.exists() else None
    recorded, checks = {}, []
    for name, workload in run.WORKLOADS.items():
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK.mkdir()
        try:
            ops = workload.prepare(run.DEFAULT_SEED)
            recorded[name] = {}
            for label, op in ops.items():
                outcome = run.spawn_cli(op) if op.call is None else run.call_in_process(op)
                # checks run once every digest is written: validate's check
                # compares its output with the recorded digest
                checks.append((f"{name} {label}", op, outcome))
                recorded[name][label] = run.digests(outcome)
        finally:
            shutil.rmtree(run.WORK, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = [(key, problems) for key, op, outcome in checks if (problems := op.check(outcome))]
    for key, problems in failed:
        print(f"{key}: {problems}", file=sys.stderr)
    if failed:
        if previous is None:
            run.DIGESTS.unlink()
        else:
            run.DIGESTS.write_text(previous, encoding="utf-8")
        return 1
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
