"""The runtime package and the verification engines stay on their own
sides: ``repro`` never loads ``tools``, and ``LOOMSAN=1`` still reaches
the shadow oracles in ``tools/loomsan`` through ``tests/conftest.py``.

Both checks need a fresh interpreter (this process has long since
imported the engines), so they run in subprocesses.
"""

import os
import subprocess
import sys
import textwrap

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(_TESTS_DIR)


def run_fresh(code, **env):
    path = os.pathsep.join([os.path.join(_REPO_ROOT, "src"), _REPO_ROOT, _TESTS_DIR])
    environ = {k: v for k, v in os.environ.items() if k != "LOOMSAN"}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(environ, PYTHONPATH=path, **env),
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_importing_the_runtime_loads_no_verification_code():
    out = run_fresh(
        """
        import sys
        import repro, repro.core, repro.daemon, repro.scope

        engines = ("sanitizer", "schedule", "modelcheck")
        print(sorted(
            name for name in sys.modules
            if name.split(".")[0] == "tools" or name.rsplit(".", 1)[-1] in engines
        ))
        assert all(hasattr(repro.core, name) for name in repro.core.__all__)
        print(len(repro.core.__all__))
        """
    )
    leaked, exported = out.splitlines()
    assert leaked == "[]"
    assert exported == "71"  # repro.core's public surface did not move


def test_loomsan_env_installs_the_shadow_oracles():
    out = run_fresh(
        """
        import conftest  # LOOMSAN=1: installs the wrappers at import
        from repro.core import LoomConfig, VirtualClock
        from repro.core.record_log import RecordLog
        from tools.loomsan import sanitizer

        assert sanitizer.installed()
        log = RecordLog(LoomConfig(chunk_size=512), clock=VirtualClock())
        log.define_source(1)
        log.push_many(1, [conftest.value_payload(float(i)) for i in range(300)])
        log.sync()
        shadow = sanitizer.shadow_of(log)
        print(len(shadow.records[1]))
        log.close()  # full differential oracle; raises SanitizerError on divergence
        print(shadow.closed)
        """,
        LOOMSAN="1",
    )
    assert out.split() == ["300", "True"]
