"""Three-domain systems: pairwise noninterference and resource carving.

The paper's policy model is not hierarchical (Sect. 2: "there may be
other secrets for which the roles of the domains are reversed"), so time
protection must hold *pairwise* between arbitrary domains.  These tests
run a three-domain system -- two secret holders and an observer -- and
check every direction: the observer learns nothing from either secret
domain, and each secret domain learns nothing from the other.
"""

import pytest

from repro.core import check_all, secret_swap_experiment
from repro.core.noninterference import SWAP_EVIDENCE
from repro.hardware import (
    Access,
    Compute,
    Evidence,
    Halt,
    ReadTime,
    Syscall,
    presets,
)
from repro.kernel import Kernel, TimeProtectionConfig


def secret_program(ctx):
    secret = ctx.params["secret"]
    for i in range(50):
        yield Access(
            ctx.data_base + (i * (secret + 1) * ctx.line_size) % ctx.data_size,
            write=True,
            value=i,
        )
        if i % 7 == 0:
            yield Syscall("nop")
    # Keep running (and keep observing own timing) forever.
    while True:
        yield ReadTime()
        yield Compute(25)


def observer_program(ctx):
    for i in range(100):
        yield ReadTime()
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
    yield Halt()


def build_three_domain(secret_a, secret_b, tp=None, max_cycles=450_000,
                       evidence=SWAP_EVIDENCE):
    machine = presets.tiny_machine()
    kernel = Kernel(machine, tp or TimeProtectionConfig.full())
    domain_a = kernel.create_domain("A", n_colours=2, slice_cycles=3000)
    domain_b = kernel.create_domain("B", n_colours=2, slice_cycles=2500)
    observer = kernel.create_domain("Obs", n_colours=2, slice_cycles=3500)
    kernel.create_thread(domain_a, secret_program, params={"secret": secret_a})
    kernel.create_thread(domain_b, secret_program, params={"secret": secret_b})
    kernel.create_thread(observer, observer_program)
    kernel.set_schedule(
        0, [(domain_a, None), (observer, None), (domain_b, None)]
    )
    kernel.declare(evidence)
    kernel.run(max_cycles=max_cycles)
    return kernel


class TestThreeDomains:
    def test_colours_carved_three_ways(self):
        kernel = build_three_domain(1, 2)
        assignments = kernel.allocator.assignments()
        domains = [assignments["A"], assignments["B"], assignments["Obs"]]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (domains[i] & domains[j])

    def test_obligations_pass(self):
        kernel = build_three_domain(3, 4, evidence=Evidence.everything())
        failed = [r for r in check_all(kernel) if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)

    def test_observer_blind_to_first_secret(self):
        result = secret_swap_experiment(
            lambda s: build_three_domain(s, 5), 1, 9, observer_domain="Obs"
        )
        assert result.holds, str(result)

    def test_observer_blind_to_second_secret(self):
        result = secret_swap_experiment(
            lambda s: build_three_domain(5, s), 1, 9, observer_domain="Obs"
        )
        assert result.holds, str(result)

    def test_secret_domains_blind_to_each_other(self):
        # A's own observations must not depend on B's secret, and vice
        # versa -- the "roles reversed" requirement.
        result_a = secret_swap_experiment(
            lambda s: build_three_domain(5, s), 1, 9, observer_domain="A"
        )
        assert result_a.holds, str(result_a)
        result_b = secret_swap_experiment(
            lambda s: build_three_domain(s, 5), 1, 9, observer_domain="B"
        )
        assert result_b.holds, str(result_b)

    def test_everyone_leaks_without_protection(self):
        result = secret_swap_experiment(
            lambda s: build_three_domain(s, 5, tp=TimeProtectionConfig.none()),
            1,
            9,
            observer_domain="Obs",
        )
        assert not result.holds
