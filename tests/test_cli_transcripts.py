"""Byte-identity gate for the command line: each recorded `xpay` invocation
must print, write and exit exactly as it did when it was recorded.

Each invocation runs `xpay.cli.main` in-process. Its record holds the sha256
of stdout, of stderr and of every `--trace`/`--report` file it writes, plus
its exit code. The records live in `cli_transcripts.json` beside this file. A
change meant to keep the CLI's behaviour must leave every record as it is; a
change that alters it on purpose re-records and names the invocations that
moved.

Regenerate the records from the current code with

    PYTHONPATH=src python tests/test_cli_transcripts.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from xpay.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORDS = Path(__file__).with_name("cli_transcripts.json")
OUT = "{out}"  # stands for the directory the invocation writes its files to

RUN_CONFIGS = (
    "nominal_strong_n1", "weak_n1", "weak_partial_sync_n1", "late_certificate_n1",
    "explore_weak_n1", "explore_strong_battery_n1",  # the battery config exits 2
)


def invocations() -> dict[str, list[str]]:
    """Each invocation's argv, keyed by a name; config paths are relative to
    the repository root."""
    out: dict[str, list[str]] = {}
    for name in RUN_CONFIGS:
        cfg = f"configs/{name}.json"
        out[f"run-{name}"] = ["run", cfg, "--trace", f"{OUT}/run.trace",
                              "--report", f"{OUT}/run.json"]
        out[f"sweep-{name}"] = ["sweep", cfg, "--runs", "20"]
    out["explore-strong-battery"] = ["explore", "configs/explore_strong_battery_n1.json"]
    out["explore-weak-budget"] = ["explore", "configs/explore_weak_n1.json", "--budget", "3000"]
    for n in (1, 2):
        for rho in ("0", "1/10"):
            out[f"derive-n{n}-rho{rho.replace('/', '_')}"] = [
                "derive", "--n", str(n), "--delta", "1", "--pi", "1/10", "--rho", rho,
                "--validate"]
    out["derive-force-a"] = ["derive", "--n", "1", "--delta", "1", "--pi", "1/10",
                             "--rho", "1/10", "--validate", "--force-a", "21/10"]
    for matrix in ("deal_cycle", "deal_path"):
        out[f"deals-check-{matrix}"] = ["deals-check", f"configs/{matrix}.matrix"]
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def transcript(argv: list[str]) -> dict:
    """Run `argv` from the repository root; the digests of what it printed and
    wrote, and its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        args = [a.replace(OUT, out_dir) if a.startswith(OUT)
                else str(ROOT / a) if a.startswith("configs/") else a for a in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        files = {name: _sha256((Path(out_dir) / name).read_bytes())
                 for name in sorted(os.listdir(out_dir))}
    return {"argv": argv, "exit": code, "stdout": _sha256(stdout.getvalue().encode()),
            "stderr": _sha256(stderr.getvalue().encode()), "files": files}


@pytest.mark.parametrize("name", invocations())
def test_cli_transcript_matches_its_record(name):
    recorded = json.loads(RECORDS.read_text())
    assert transcript(invocations()[name]) == recorded[name]


def test_every_record_has_its_invocation():
    assert set(json.loads(RECORDS.read_text())) == set(invocations())


if __name__ == "__main__":
    records = {name: transcript(argv) for name, argv in invocations().items()}
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
