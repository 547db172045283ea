"""pytest plugin: run tests on the numpy fallback of the batch kernel.

``python -m pytest -p tests.numpy_kernel <tests>`` makes the compiled
kernel's loader report that no C compiler exists, so every batch kernel
built in the session decodes on its numpy path — the path a host
without a compiler takes.  The session fails at the start if the
compiled kernel is loaded anyway.
"""

from __future__ import annotations

import warnings

from repro.accel import native


def pytest_configure(config) -> None:
    native._find_compiler = lambda: None
    native._reset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if native.load() is not None:
            raise RuntimeError("the compiled kernel loaded despite the plugin")
