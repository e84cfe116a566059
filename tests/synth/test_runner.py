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
