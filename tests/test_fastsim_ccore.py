"""The package's C library cache: lazy, shared, atomic.

One library (``repro._clib``) carries the compiled kernel tier and the
§4.2 correlated sweep. Each test runs fresh interpreters with
``XDG_CACHE_HOME`` pointed at a temporary directory, so "the first call
builds" and "a later process only loads" are observed as they happen on
a new machine:

* importing the library and its command-line, serving and fitting entry
  points builds nothing;
* the first replication, or the first correlated fit, writes exactly one
  library, and a later process of either kind loads that file and leaves
  it untouched;
* two processes that start together on a cold cache return the same
  bits and leave one file behind;
* a compiler that fails is run once per process, whichever user asks
  first, and both users fall back.
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

#: One correlated fit; prints the fit and the Python-loop fallback count.
CORRELATED_FIT = """
import numpy as np
from repro.core.correlated import compute_optimal_singler_correlated
from repro.obs import get_metrics

rng = np.random.default_rng(5)
x = rng.lognormal(1.0, 0.7, 3000)
y = 0.5 * x + rng.lognormal(0.5, 0.5, 3000)
fit = compute_optimal_singler_correlated(x, x, y, 0.99, 0.05)
counter = get_metrics().get("optimize.correlated.fallbacks")
print(repr(fit), 0 if counter is None else counter.value)
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
        "import repro.core, repro.fastsim, repro.serving.procfleet, "
        "repro.main, repro.optimize\n"
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


def test_first_correlated_fit_builds_the_one_library_a_replication_reuses(
    tmp_path,
):
    fit = _finish(_python(CORRELATED_FIT, tmp_path))
    assert fit.endswith(" 0")  # the C sweep ran: no fallback
    (library,) = _files(tmp_path)
    mtime = library.stat().st_mtime_ns

    assert _finish(_python(REPLICATE, tmp_path)).startswith("compiled ")
    assert _finish(_python(CORRELATED_FIT, tmp_path)) == fit
    assert _files(tmp_path) == [library]
    assert library.stat().st_mtime_ns == mtime


def test_failing_compiler_is_tried_once_for_both_users(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(
        "#!/bin/sh\necho call >> \"$0.calls\"\n"
        "echo 'cc: fatal error: broken' >&2\nexit 1\n"
    )
    cc.chmod(0o755)
    path = f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"
    both = CORRELATED_FIT + REPLICATE + CORRELATED_FIT
    out = _finish(_python(both, tmp_path / "cache", PATH=path)).splitlines()
    first_fit, (tier, _), second_fit = out[0], out[1].split(), out[2]
    assert first_fit.endswith(" 1") and second_fit.endswith(" 2")
    assert first_fit[:-2] == second_fit[:-2]
    assert tier == "numpy"
    assert cc.with_name("cc.calls").read_text() == "call\n"
    assert _files(tmp_path / "cache") == []
    # The Python loop's fit is the C sweep's, bit for bit.
    compiled = _finish(_python(CORRELATED_FIT, tmp_path / "warm"))
    assert compiled == first_fit[:-2] + " 0"
