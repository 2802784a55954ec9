"""The artifact digests of one checkout's benchmark runs, for comparing two
checkouts byte for byte.

    python3 tools/artifact_digest.py [--checkout DIR]

Copies DIR's src/ and bench/ (default: this checkout's) to a temporary
directory, so the checkout's .bench_work/ history is untouched, and there
runs ``bench/run.py --workload W --seconds 0 --seed N`` for each workload
on seeds 7 and 11. Then prints one line per run, ``workload seed
artifacts_sha256``, from the copy's .bench_work/history.json: for
cold_build the digest of the build's artifacts, for infer_new_text the inference digest. Run it on two
checkouts and diff the output. Edits nothing; the temporary directory is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_build", "infer_new_text")
SEEDS = (7, 11)


def read_digests(history_path) -> dict[tuple[str, int], str]:
    """{(workload, seed): artifacts_sha256} of a bench/run.py history.json
    that holds one code's runs; its keys read ``workload|seed=N|code=C``."""
    digests = {}
    for key, record in json.loads(Path(history_path).read_text()).items():
        workload, seed, _ = key.split("|")
        digests[workload, int(seed.removeprefix("seed="))] = record["artifacts_sha256"]
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="artifact-digest-") as tmp:
        workdir = Path(tmp)
        for name in ("src", "bench"):
            shutil.copytree(args.checkout / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
        failed = 0
        for seed in SEEDS:
            for workload in WORKLOADS:
                cmd = [sys.executable, "bench/run.py", "--workload", workload,
                       "--seconds", "0", "--seed", str(seed)]
                code = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL).returncode
                if code:
                    print(f"# {workload} seed {seed}: bench/run.py exited {code}")
                    failed += 1
        for (workload, seed), digest in sorted(read_digests(
                workdir / ".bench_work" / "history.json").items()):
            print(f"{workload} {seed} {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
