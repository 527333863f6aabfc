"""The compiled tier's library cache: lazy, shared, atomic.

Each test runs fresh interpreters with ``XDG_CACHE_HOME`` pointed at a
temporary directory, so "the first call builds" and "a later process
only loads" are observed as they happen on a new machine:

* importing the library and its command-line and serving entry points
  builds nothing;
* the first replication writes exactly one library;
* a second process loads that file and leaves it untouched;
* two processes that start together on a cold cache return the same
  bits and leave one file behind.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: One compiled-tier replication; prints its executed tier and a digest
#: of every result array.
REPLICATE = """
import hashlib
from repro.core.policies import SingleR
from repro.fastsim import simulate_replication_tiered
from repro.simulation.workloads import queueing_workload

cfg = queueing_workload(n_queries=3000, utilization=0.6).batch_config
run, tier = simulate_replication_tiered(cfg, SingleR(2.0, 0.5), 11)
digest = hashlib.sha256()
for array in (run.latencies, run.reissue_pair_x, run.reissue_pair_y):
    digest.update(array.tobytes())
digest.update(repr((run.reissue_rate, run.utilization)).encode())
print(tier, digest.hexdigest())
"""


def _env(cache):
    env = {**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(cache)}
    env.pop("REPRO_KERNEL", None)
    return env


def _python(code, cache, **env):
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**_env(cache), **env},
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.strip()


def _files(cache):
    root = cache / "repro"
    return sorted(root.iterdir()) if root.exists() else []


def test_import_builds_nothing(tmp_path):
    code = (
        "import repro.fastsim, repro.serving.procfleet, repro.main, "
        "repro.optimize\n"
        "from repro.fastsim import kernel_info\n"
        "print(kernel_info()['default_tier'])\n"
    )
    assert _finish(_python(code, tmp_path)) == "compiled"
    assert _files(tmp_path) == []


def test_first_call_builds_one_library_and_later_processes_reuse_it(tmp_path):
    first = _finish(_python(REPLICATE, tmp_path))
    assert first.startswith("compiled ")
    (library,) = _files(tmp_path)
    assert library.suffix == ".so"
    mtime = library.stat().st_mtime_ns

    assert _finish(_python(REPLICATE, tmp_path)) == first
    assert _files(tmp_path) == [library]
    assert library.stat().st_mtime_ns == mtime


def test_concurrent_cold_builds_agree_and_leave_one_file(tmp_path):
    workers = [_python(REPLICATE, tmp_path) for _ in range(2)]
    outputs = [_finish(proc) for proc in workers]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("compiled ")
    assert len(_files(tmp_path)) == 1
    numpy = _finish(_python(REPLICATE, tmp_path, REPRO_KERNEL="numpy"))
    assert numpy.split() == ["numpy", outputs[0].split()[1]]
