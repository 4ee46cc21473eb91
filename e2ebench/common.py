"""Shared pieces of the end-to-end benchmark: run context, checks, stats."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".e2ebench-tmp"

SETUP_REPEATS = 5
"""Set-up is repeated this many times per run and its median reported."""

IMPORTS = (
    "import repro.characterization.campaign, repro.characterization.store, "
    "repro.engine, repro.service"
)


@dataclasses.dataclass
class Context:
    """One benchmark run: its arguments and its private scratch tree."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    tmp: Path

    def new_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.tmp))

    def env(self) -> Dict[str, str]:
        """Environment for a program subprocess: this checkout's sources."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.tmp)
        return env


class Checks:
    """Counts correctness checks; each failed one is a failed operation.

    A known fault is a check of a fault the program has today that
    fails on every run, whatever the seed: it counts in ``failed`` but
    does not make the run incorrect, so the fault stays visible without
    hiding new failures behind it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: Any = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{name}: {detail}")
        return ok

    def known_fault(self, name: str, ok: bool, detail: Any = "") -> bool:
        if not ok:
            self.known_failed += 1
        return self.check(f"known fault {name}", ok, detail)


@dataclasses.dataclass
class Outcome:
    """What a workload reports: op counts, metrics and diagnostics."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, Any]
    failures: List[str]
    known_failed: int = 0


def scratch_root() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=SCRATCH))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def import_seconds(ctx: Context, repeats: int) -> float:
    """Median wall time of the program's imports in fresh interpreters.

    The benchmark process has already imported (and byte-compiled) the
    same modules, so these measure a warm bytecode and page cache.
    """
    code = (
        "import time\n"
        "started = time.perf_counter()\n"
        f"{IMPORTS}\n"
        "print(time.perf_counter() - started)\n"
    )
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], env=ctx.env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail_percentile(values: List[float], q: int) -> Optional[float]:
    """The ``q``-th percentile, or None with fewer than 10 samples above."""
    if len(values) * (100 - q) / 100.0 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def mean_per_round(totals: List[Dict[str, float]]) -> Dict[str, float]:
    """Average each metric over rounds (identical rounds stay exact)."""
    out = {}
    for key in totals[0]:
        mean = sum(round_[key] for round_ in totals) / len(totals)
        out[key] = int(mean) if float(mean).is_integer() else mean
    return out


def digest(value: Any) -> str:
    """sha256 of a JSON-able value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wire_form(data: Any) -> Any:
    """A figure payload as the query service writes it in JSON.

    Tuple keys become comma-joined strings and every distribution
    summary becomes its field dict plus a marker, so the benchmark can
    digest what it wrote without the program's own encoder.
    """
    if dataclasses.is_dataclass(data) and not isinstance(data, type):
        fields = dataclasses.asdict(data)
        fields["__distribution_summary__"] = True
        return fields
    if isinstance(data, dict):
        return {
            (",".join(str(part) for part in key)
             if isinstance(key, tuple) else str(key)): wire_form(value)
            for key, value in data.items()
        }
    if isinstance(data, (list, tuple)):
        return [wire_form(item) for item in data]
    return data


def now() -> float:
    return time.perf_counter()
