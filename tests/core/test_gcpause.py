"""The prover and the model checker pause the cyclic collector alike.

``collector_paused`` must leave ``gc.isenabled()`` as it found it after
a proof and after a model check: when the collector was on, when it was
off, and when the system builder raises.  With the collector off, a
proof must still free each finished kernel by reference counting: the
kernels are counted through weak references without ever collecting,
so a reference cycle through a kernel would show as kernels piling up.
"""

import gc
import weakref

import pytest

import repro.mc.explorer as explorer
from repro.campaign.registry import TP_CONFIGS
from repro.core import prove_time_protection
from repro.core.gcpause import collector_paused
from repro.mc import McSpec, ModelChecker

from tests.conftest import MAX_CYCLES, boot_two_domain_system


@pytest.fixture
def collector_state():
    """Restore the collector whatever a test leaves it in."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _full(secret):
    return boot_two_domain_system(secret, TP_CONFIGS["full"]())


def _prove(build=_full, secrets=(1, 9)):
    return prove_time_protection(build, list(secrets), "Lo", MAX_CYCLES)


def _check():
    return ModelChecker(McSpec.for_machine("micro", "full",
                                           secrets=(0, 1))).run()


class BuilderFailed(Exception):
    pass


def _raise(*_args):
    raise BuilderFailed()


@pytest.mark.parametrize("enabled", (True, False), ids=("on", "off"))
def test_pause_restores_the_collector(collector_state, enabled):
    gc.enable() if enabled else gc.disable()
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is enabled
    with pytest.raises(BuilderFailed):
        with collector_paused():
            _raise()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", (True, False), ids=("on", "off"))
def test_prove_restores_the_collector(collector_state, enabled):
    gc.enable() if enabled else gc.disable()
    seen = []

    def build(secret):
        seen.append(gc.isenabled())
        return _full(secret)

    assert _prove(build).holds
    assert seen == [False, False]
    assert gc.isenabled() is enabled
    with pytest.raises(BuilderFailed):
        _prove(_raise)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", (True, False), ids=("on", "off"))
def test_mc_restores_the_collector(collector_state, monkeypatch, enabled):
    gc.enable() if enabled else gc.disable()
    assert _check().passed
    assert gc.isenabled() is enabled
    monkeypatch.setattr(explorer, "build_system", _raise)
    with pytest.raises(BuilderFailed):
        _check()
    assert gc.isenabled() is enabled


def test_paused_proof_keeps_baseline_and_one_other_alive(collector_state):
    # Unlike test_sweep_keeps_baseline_and_one_other_alive, nothing here
    # collects: each finished kernel must go by reference counting.
    gc.enable()
    kernels = []
    most_alive = 0

    def build(secret):
        nonlocal most_alive
        assert not gc.isenabled()
        kernel = _full(secret)
        kernels.append(weakref.ref(kernel))
        alive = sum(1 for ref in kernels if ref() is not None)
        most_alive = max(most_alive, alive)
        return kernel

    report = _prove(build, secrets=range(0, 48, 4))
    assert report.holds
    assert len(kernels) == 12
    # The baseline and the kernel just built, never a finished one.
    assert most_alive == 2
    assert all(ref() is None for ref in kernels)
