"""The synth runner's horizon leaves its spy room to finish."""

import pytest

from repro.campaign.registry import ATTACKS, MACHINES, TP_CONFIGS
from repro.kernel.objects import ThreadState
from repro.synth.runner import DEFAULT_SYMBOLS


@pytest.mark.parametrize("tp", ["none", "full", "no-pad"])
def test_registry_synth_attack_ends_with_the_spy_done(tp):
    # Under ``full`` every switch is padded; a horizon that leaves the
    # pads out ends the run with the spy still READY, short of samples.
    kernels = []
    result = ATTACKS["synth"].run(
        TP_CONFIGS[tp](), MACHINES["tiny"], {"on_kernel": kernels.append})
    symbols = DEFAULT_SYMBOLS["set_hammer"]
    assert len(kernels) == len(symbols)
    for kernel in kernels:
        assert [t.state for t in kernel.all_threads() if not t.daemon] == [
            ThreadState.DONE]
    # Four rounds per run, the first dropped as warm-up.
    assert len(result.samples) == 3 * len(symbols)


def test_syscall_user_victim_uses_the_runners_endpoint():
    # Symbol 1 sends and symbol 2 polls, both on the endpoint the runner
    # created; the endpoint table numbers endpoints from 1, not 0.
    kernels = []
    result = ATTACKS["synth"].run(
        TP_CONFIGS["none"](), MACHINES["tiny"],
        {"victim": "syscall_user", "symbols": (1, 2),
         "on_kernel": kernels.append})
    sent, polled = ([e.endpoint_id for e in k.endpoints.all()] for k in kernels)
    assert sent == polled == [1]
    # Nothing receives what symbol 1 sends; symbol 2 only polls.
    assert len(kernels[0].endpoints.get(1).queue) > 0
    assert len(kernels[1].endpoints.get(1).queue) == 0
    assert len(result.samples) == 3 * 2
