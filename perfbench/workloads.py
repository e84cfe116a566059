"""The three benchmark workloads and their output checks.

Each workload drives the product through ``repro.cli.main`` argv, the
same entry point as the ``repro-tp`` command, in this process.  A round
is one fixed unit of work (a campaign pass plus its resume check, a
pair of model checks, a pair of proofs); ``run.py`` repeats rounds
for the measuring window.  Every op's output is checked here, and a
wrong output counts as a failed op.

Each op runs inside ``meter.piece``, so ``run.py`` can time every op
across repeated rounds.  A campaign pass is one op: its time covers the
trials, the result store and the executor's bookkeeping between trials.

Inputs come only from the seed: it chooses the campaign grid seed and
the secret list of the proof sweep.  The model-check inputs are fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Channel capacities at or above this print as a nonzero 0.001 bits.
CLOSED_BELOW_BITS = 0.0005


@dataclass
class RoundResult:
    """What one round did and whether its outputs were right."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    # Everything the round computed, for the traced/untraced comparison.
    outputs: list = field(default_factory=list)
    # mc report statistics summed over the round's model checks.
    mc_stats: Dict[str, int] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Record one op; a false ``ok`` makes it a failed op."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def invoke(argv: List[str]) -> Tuple[int, str]:
    """Run ``repro-tp <argv>`` in-process; returns (exit code, stdout)."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def noise_floor_bits(n_samples: int, n_symbols: int) -> float:
    """Miller-Madow bias of the plug-in MI estimate, in bits.

    Taken with as many output classes as input symbols, the decoder's
    view of the channel: a capacity above this is not estimator noise.
    """
    per_symbol = n_samples // max(1, n_symbols)
    if per_symbol <= 0:
        return math.inf
    return (n_symbols - 1) / (2.0 * per_symbol * math.log(2.0))


class ChannelCampaign:
    """``repro-tp campaign --workers 1`` over tiny x {none,full} x attacks."""

    name = "channel_campaign"
    imports = ("repro.cli", "repro.campaign", "repro.analysis.summary")
    ATTACKS = {
        "full": ("e1", "e2", "e4", "e5", "e6", "occupancy"),
        "small": ("e4", "e5"),
    }
    # (tp, attack) -> "closed" (measures 0.000 bits) or "leaks" (above
    # the noise floor); cells not listed are not checked.  The product's
    # "full" config leaves IPC unpadded, so the Figure 1 downgrader
    # channel (e1) stays open under it; the other full cells are closed.
    EXPECT: Dict[Tuple[str, str], str] = {
        ("full", "e1"): "leaks",
        ("full", "e2"): "closed",
        ("full", "e4"): "closed",
        ("full", "e5"): "closed",
        ("full", "e6"): "closed",
        ("full", "occupancy"): "closed",
        ("none", "e1"): "leaks",
        ("none", "e2"): "leaks",
        ("none", "e4"): "leaks",
        ("none", "e6"): "leaks",
        ("none", "occupancy"): "leaks",
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.attacks = self.ATTACKS[size]
        self.workdir = workdir
        self.campaign_seed = random.Random(seed).randrange(1 << 20)

    def fixture(self) -> None:
        from repro.campaign.registry import MACHINES

        MACHINES["tiny"]()

    def argv(self, seed: int, store: str) -> List[str]:
        return [
            "campaign", "--workers", "1", "--machines", "tiny",
            "--tps", "none,full", "--attacks", ",".join(self.attacks),
            "--seeds", str(seed), "--store", store, "--quiet", "--no-summary",
        ]

    def _check_cell(self, record: dict) -> Tuple[bool, str]:
        cell = (record.get("tp"), record.get("attack"))
        if record.get("status") != "ok":
            return False, f"{cell}: status {record.get('status')}"
        stats = record["result"]["stats"]
        bits = stats["capacity_bits"]
        expect = self.EXPECT.get(cell)
        if expect == "closed" and not bits < CLOSED_BELOW_BITS:
            return False, f"{cell}: {bits:.3f} bits, expected 0.000"
        if expect == "leaks":
            floor = noise_floor_bits(stats["n_samples"], stats["n_symbols"])
            if not bits > floor:
                return False, f"{cell}: {bits:.3f} bits, floor {floor:.3f}"
        return True, ""

    def run_round(self, index: int, tag: str, meter) -> RoundResult:
        result = RoundResult()
        store = os.path.join(self.workdir, f"campaign-{tag}-{index}.jsonl")
        argv = self.argv(self.campaign_seed, store)
        with meter.piece("campaign pass"):
            code, _ = invoke(argv)
        with open(store, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        expected_cells = {(tp, a) for tp in ("none", "full") for a in self.attacks}
        cells = {(r.get("tp"), r.get("attack")) for r in records}
        if code != 0 or cells != expected_cells or len(records) != len(cells):
            result.check(False, f"campaign exit {code}, cells {sorted(cells)}")
        for record in sorted(records, key=lambda r: (r["tp"], r["attack"])):
            ok, why = self._check_cell(record)
            result.check(ok, why)
            stats = (record.get("result") or {}).get("stats") or {}
            result.outputs.append(
                (record["tp"], record["attack"], stats.get("capacity_bits"),
                 stats.get("decode_accuracy"))
            )
        # Resume check: the same grid against the filled store runs nothing.
        with meter.piece("resume check"):
            code, out = invoke(argv)
        with open(store, encoding="utf-8") as handle:
            after = sum(1 for line in handle if line.strip())
        executed = re.search(r"(\d+) executed", out)
        result.check(
            code == 0 and executed is not None and executed.group(1) == "0"
            and after == len(records),
            f"resume re-run: exit {code}, {out.strip()[:120]!r}",
        )
        return result


class McExhaustive:
    """``repro-tp mc`` on tiny: full TP passes, no-pad is refuted."""

    name = "mc_exhaustive"
    imports = ("repro.cli", "repro.mc")
    SPECS = {
        "full": ("0,1,2,3", "2"),
        "small": ("0,1", "1"),
    }
    # tp -> expected verdict (True = PASS, exhaustively).
    EXPECT_PASS: Dict[str, bool] = {"full": True, "no-pad": False}

    def __init__(self, seed: int, size: str, workdir: str):
        self.secrets, self.irq_budget = self.SPECS[size]

    def fixture(self) -> None:
        from repro.campaign.registry import MACHINES

        MACHINES["tiny"]()

    def run_round(self, index: int, tag: str, meter) -> RoundResult:
        result = RoundResult()
        for tp, expect_pass in self.EXPECT_PASS.items():
            with meter.piece(f"mc {tp}"):
                code, out = invoke([
                    "mc", "--machine", "tiny", "--tp", tp,
                    "--secrets", self.secrets,
                    "--irq-budget", self.irq_budget, "--format", "json",
                ])
            report = json.loads(out)
            stats = report["stats"]
            if expect_pass:
                ok = (code == 0 and report["passed"] is True
                      and report["exhaustive"] is True)
            else:
                ok = (code == 1 and report["passed"] is False
                      and len(report["counterexamples"]) > 0)
            result.check(ok, f"mc --tp {tp}: exit {code}, passed "
                             f"{report['passed']}, {report['stop_reason']}")
            for key in ("states_visited", "transitions", "deduped"):
                result.mc_stats[key] = result.mc_stats.get(key, 0) + stats[key]
            result.outputs.append(
                (tp, report["passed"], report["exhaustive"],
                 stats["states_visited"], stats["transitions"],
                 stats["deduped"])
            )
        return result


class ProveSweep:
    """``repro-tp prove`` on tiny over a seed-chosen secret list."""

    name = "prove_sweep"
    imports = ("repro.cli", "repro.core")
    N_SECRETS = {"full": 12, "small": 3}
    # tp -> whether the theorem must hold.
    EXPECT_HOLDS: Dict[str, bool] = {"full": True, "none": False}

    def __init__(self, seed: int, size: str, workdir: str):
        rng = random.Random(seed)
        self.secrets = rng.sample(range(64), self.N_SECRETS[size])

    def fixture(self) -> None:
        from repro.campaign.registry import MACHINES

        MACHINES["tiny"]()

    def run_round(self, index: int, tag: str, meter) -> RoundResult:
        result = RoundResult()
        secrets = ",".join(str(s) for s in self.secrets)
        for tp, expect_holds in self.EXPECT_HOLDS.items():
            with meter.piece(f"prove {tp}"):
                code, out = invoke([
                    "prove", "--machine", "tiny", "--tp", tp,
                    "--secrets", secrets, "--format", "json",
                ])
            report = json.loads(out)
            pairs = [entry["holds"] for entry in report["noninterference"]]
            ok = (
                report["holds"] is expect_holds
                and code == (0 if expect_holds else 1)
                and len(pairs) == len(self.secrets) - 1
                and all(pairs) is expect_holds
            )
            result.check(ok, f"prove --tp {tp}: exit {code}, holds "
                             f"{report['holds']}, pairs {pairs}")
            result.outputs.append(
                (tp, report["holds"], tuple(pairs),
                 tuple(o["passed"] for o in report["obligations"]))
            )
        return result


WORKLOADS = {
    cls.name: cls for cls in (ChannelCampaign, McExhaustive, ProveSweep)
}
