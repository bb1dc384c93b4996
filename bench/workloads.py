"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup`` (untimed apart
from the set-up metric), does one round of fixed work in ``run_round`` (the
timed phase repeats whole rounds), and checks the round's outputs in
``check``.  ``verify`` runs once per run, after the timed phase, and checks
outputs against computations made apart from the code path under test.

Functions of the program are always looked up through their module at call
time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from pencillab import builder, cli, extractor, pencils, rmatrix
from pencillab import campaign as campaign_mod
from pencillab import completion as completion_mod
from pencillab import concordance as concordance_mod
from pencillab.bounds import RankRelation
from pencillab.extractor import WeyrChar
from pencillab.partitions import Star


@dataclass
class Failed:
    """An operation that raised instead of producing an output."""

    error: str


@dataclass
class RoundResult:
    """Outputs of one round and the items it attempted and lost."""

    outputs: list
    items: int
    failed: int


def attempt(fn, *args):
    """fn(*args), or a Failed output if it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation, not fatal
        return Failed(repr(exc))


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # string seeds hash with sha512, so inputs do not depend on the process
    return random.Random(f"bench:{workload}:{seed}:{part}")


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- roundtrip

# random_weyr's budget for the scrambled characteristics: ranks 0..7
SCRAMBLE_BUDGET = 7

@dataclass
class Roundtrip:
    """weyr_characteristic on every canonical pencil of total weight <= k and
    on seeded strict-equivalence scrambles of random characteristics."""

    max_total: int = 6
    scrambles: int = 800
    verify_sample: int = 12
    name: str = "roundtrip"
    item: str = "pencil"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = _rng(self.name, seed, "scrambles")
        cases = [(om, builder.build_pencil(om)) for om in builder.iter_weyr_chars(self.max_total)]
        for i in range(self.scrambles):
            # the same number of scrambles of each rank for every seed: the
            # cost of Smith on a scramble grows steeply with its size
            while True:
                om = builder.random_weyr(rng.getrandbits(32), SCRAMBLE_BUDGET)
                if om.rank == i % (SCRAMBLE_BUDGET + 1):
                    break
            h = builder.random_equivalence(builder.build_pencil(om), rng.getrandbits(32))
            cases.append((om, h))
        return {"seed": seed, "cases": cases}

    def run_round(self, state: dict) -> RoundResult:
        result = RoundResult([], len(state["cases"]), 0)
        for _, h in state["cases"]:
            result.outputs.append(attempt(extractor.weyr_characteristic, h))
        result.failed = sum(isinstance(out, Failed) for out in result.outputs)
        return result

    def check(self, state: dict, outputs: list) -> list[str]:
        return [f"round trip of {om.to_json()} gave {out.to_json()}"
                for (om, _), out in zip(state["cases"], outputs)
                if not isinstance(out, Failed) and out != om]

    def verify(self, state: dict, outputs: list) -> list[str]:
        """Staircase counts against the block-convolution oracle and the
        characteristic's rank against normal_rank, both over Fractions."""
        problems = []
        rng = _rng(self.name, state["seed"], "verify")
        cases = state["cases"]
        for idx in rng.sample(range(len(cases)), min(self.verify_sample, len(cases))):
            om, h = cases[idx]
            for side, g in (("column", h), ("row", pencils.transpose(h))):
                counts = extractor.column_index_counts(g)
                oracle = extractor.column_index_counts_convolution(g, len(counts) - 1)
                if counts != oracle:
                    problems.append(f"{side} staircase {counts} != convolution {oracle} "
                                    f"for {om.to_json()}")
            if om.rank != pencils.normal_rank(h):
                problems.append(f"rank {om.rank} != normal_rank for {om.to_json()}")
        return problems


# ----------------------------------------------------------------- campaign

_EXTREME = re.compile(r"observed (-?\d+), bound (-?\d+), expected (-?\d+)")
_GAP = {"equal": 0, "plus-one": 1, "minus-one": -1}

# criterion 3's campaign seed, the same in every run (see Campaign)
CAMPAIGN_SEED = 2024
# fixtures that `pencillab fixtures` runs
FIXTURES = 13


@dataclass
class Campaign:
    """``pencillab fixtures`` then ``pencillab campaign --seed S --trials N``
    through cli.main in-process (default budget, dimension and concordance
    weight 3).

    S is fixed, and the benchmark's seed draws only the trials verified
    afterwards: a trial's cost is so heavy-tailed (coefficient of variation
    near 3.7, one trial in a thousand costing a tenth of the total) that
    500 trials of different campaign seeds differ by about 16% in work."""

    trials: int = 250
    verify_sample: int = 20
    name: str = "campaign"
    item: str = "trial"

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "argv": ["campaign", "--seed", str(CAMPAIGN_SEED),
                                       "--trials", str(self.trials)]}

    def run_round(self, state: dict) -> RoundResult:
        result = RoundResult([], self.trials, 0)
        result.outputs = [attempt(_call_cli, ["fixtures"]),
                          attempt(_call_cli, state["argv"])]
        if any(isinstance(out, Failed) for out in result.outputs):
            result.failed = self.trials  # the round's trials are lost
        return result

    def check(self, state: dict, outputs: list) -> list[str]:
        if any(isinstance(out, Failed) for out in outputs):
            return []
        (fix_code, fix_text), (camp_code, camp_text) = outputs
        problems = []
        if fix_code != 0:
            problems.append(f"fixtures exited {fix_code}")
        if camp_code != 0:
            problems.append(f"campaign exited {camp_code}")
        problems += self._check_fixtures(json.loads(fix_text))
        summary = json.loads(camp_text)
        pert = summary["perturbation"]
        if pert["trials"] != self.trials:
            problems.append(f"campaign ran {pert['trials']} trials, asked {self.trials}")
        if pert["violations"] != 0 or pert["counterexamples"]:
            problems.append(f"campaign reports {pert['violations']} bound violations")
        if summary["concordance"]["mismatches"] != 0:
            problems.append(f"campaign reports {summary['concordance']['mismatches']} "
                            "concordance mismatches")
        return problems

    def _check_fixtures(self, results: list) -> list[str]:
        """Every fixture passes and attains its extremal differences exactly:
        the observed difference equals the bound's endpoint."""
        problems = []
        if len(results) != FIXTURES:
            problems.append(f"{len(results)} fixtures ran, expected {FIXTURES}")
        for res in results:
            if not res["passed"]:
                problems.append(f"fixture {res['id']} failed")
            extremes = [c for c in res["checks"] if c["name"].startswith("extreme-")]
            if not extremes:
                problems.append(f"fixture {res['id']} reports no extreme")
            for chk in extremes:
                match = _EXTREME.fullmatch(chk.get("info", ""))
                if not match or len(set(match.groups())) != 1:
                    problems.append(f"fixture {res['id']} {chk['name']}: {chk.get('info')}")
        return problems

    def verify(self, state: dict, outputs: list) -> list[str]:
        """Regenerate a sample of trials and recompute their rank relation as
        normal_rank(h + p) - normal_rank(h) over Fractions."""
        config = campaign_mod.CampaignConfig(seed=CAMPAIGN_SEED, trials=self.trials)
        rng = _rng(self.name, state["seed"], "verify")
        problems = []
        for trial in sorted(rng.sample(range(self.trials), min(self.verify_sample, self.trials))):
            problems += self.check_trial(campaign_mod.perturbation_trial(config, trial))
        return problems

    @staticmethod
    def check_trial(outcome: dict) -> list[str]:
        h = pencils.Pencil.from_json(outcome["pencil"])
        p = pencils.Pencil.from_json(outcome["perturbation"])
        gap = pencils.normal_rank(h.add(p)) - pencils.normal_rank(h)
        problems = []
        if _GAP.get(outcome["rank_relation"]) != gap:
            problems.append(f"trial {outcome['trial']} reports {outcome['rank_relation']}, "
                            f"normal ranks differ by {gap}")
        if outcome["violations"]:
            problems.append(f"trial {outcome['trial']} violates {outcome['violations']}")
        return problems


# -------------------------------------------------------------- concordance

# column limit of the sweep: the full weight-4 sweep is too slow to repeat
# often enough in one run (bench/README.md)
MAX_COLS = 3


@dataclass
class Concordance:
    """concordance_mismatches(k, ambient_cols=MAX_COLS): the brute-force row
    oracle against check_completion_full on every pair of total weight <= k
    and at most MAX_COLS columns, then the witness rule on the pairs the
    oracle misses."""

    max_total: int = 4
    random_rows: int = 40
    name: str = "concordance"
    item: str = "subpencil"

    def setup(self, seed: int, workdir: Path) -> dict:
        # the sweep is exhaustive, so only the sampled soundness rows below
        # depend on the seed; the expected counts are taken independently of
        # the sweep from the enumeration
        universe = [om for om in builder.iter_weyr_chars(self.max_total) if om.n <= MAX_COLS]
        shapes: dict[tuple[int, int], int] = {}
        for om in universe:
            shapes[(om.m, om.n)] = shapes.get((om.m, om.n), 0) + 1
        subs = [om for om in universe if (om.m + 1, om.n) in shapes]
        pairs = sum(shapes[(om.m + 1, om.n)] for om in subs)
        return {"seed": seed, "subpencils": subs, "pairs": pairs}

    def run_round(self, state: dict) -> RoundResult:
        """The sweep, then the witness rule: each predicted pair the oracle
        misses is escalated to an explicit companion completion."""
        items = len(state["subpencils"])
        result = RoundResult([], items, 0)
        result.outputs = [attempt(self.sweep)]
        if isinstance(result.outputs[0], Failed):
            result.failed = items
        return result

    def sweep(self):
        compared, mismatches = concordance_mod.concordance_mismatches(
            self.max_total, ambient_cols=MAX_COLS)
        witnesses = [concordance_mod.companion_completion_witness(mm.omega_sub, mm.omega_full)
                     if mm.predicted and not mm.oracle else None for mm in mismatches]
        return compared, mismatches, witnesses

    def check(self, state: dict, outputs: list) -> list[str]:
        if isinstance(outputs[0], Failed):
            return []
        compared, mismatches, witnesses = outputs[0]
        problems = []
        if compared != state["pairs"]:
            problems.append(f"compared {compared} pairs, the enumeration has {state['pairs']}")
        for mm, stacked in zip(mismatches, witnesses):
            problems += self.check_mismatch(mm, stacked)
        return problems

    @staticmethod
    def check_mismatch(mm, stacked) -> list[str]:
        """A pair the oracle reaches must be predicted; a predicted pair the
        oracle misses needs a one-row completion of the canonical subpencil
        that extracts to the target."""
        pair = f"{mm.omega_sub.to_json()} -> {mm.omega_full.to_json()}"
        if mm.oracle and not mm.predicted:
            return [f"oracle reaches an unpredicted pair {pair}"]
        if stacked is None:
            return [f"no witness for the predicted pair {pair}"]
        sub = builder.build_pencil(mm.omega_sub)
        if (stacked.a.entries[1:], stacked.b.entries[1:]) != (sub.a.entries, sub.b.entries):
            return [f"witness for {pair} is not a one-row completion of the subpencil"]
        try:
            reached = extractor.weyr_characteristic(stacked)
        except extractor.IrrationalSpectrumError:
            reached = None
        if reached != mm.omega_full:
            return [f"witness for {pair} extracts to another characteristic"]
        return []

    def verify(self, state: dict, outputs: list) -> list[str]:
        """Stack seeded random rows with entries in -2..2 (wider than the
        oracle's grid) on sampled subpencils: every completion reached must
        satisfy the characterization."""
        rng = _rng(self.name, state["seed"], "verify")
        problems = []
        for _ in range(self.random_rows):
            om_sub = rng.choice(state["subpencils"])
            sub = builder.build_pencil(om_sub)
            row_a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(sub.n))
            row_b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(sub.n))
            stacked = pencils.Pencil(
                rmatrix.Matrix(sub.m + 1, sub.n, (row_a,) + sub.a.entries),
                rmatrix.Matrix(sub.m + 1, sub.n, (row_b,) + sub.b.entries))
            try:
                om_full = extractor.weyr_characteristic(stacked)
            except extractor.IrrationalSpectrumError:
                continue
            relation = (RankRelation.EQUAL if om_full.rank == om_sub.rank
                        else RankRelation.PLUS_ONE)
            if not completion_mod.check_completion_full(om_sub, om_full, relation):
                problems.append(f"row {row_a}+s{row_b} completes {om_sub.to_json()} to "
                                f"unpredicted {om_full.to_json()}")
        return problems


# ----------------------------------------------------------------- spectrum

# small eigenvalues that leave the top invariant factor's end coefficients
# at +-p and q, so a pencil's root-finding cost depends on p and q alone
SMALL_POOL = (Fraction(0), Fraction(1), Fraction(-1))


@dataclass
class Spectrum:
    """``pencillab invariants FILE`` on small scrambled pencils with one
    planted eigenvalue of large height, in tiers of numerator digits."""

    tiers: tuple[int, ...] = (4, 7, 10, 13)
    per_tier: int = 10
    name: str = "spectrum"
    item: str = "pencil"

    def planted(self, rng: random.Random, digits: int) -> WeyrChar:
        """A large eigenvalue p/q (p with ``digits`` digits, leading digits
        10, q prime to p with a third as many digits) in simple blocks only,
        so it enters the top invariant factor once, plus a small-pool
        eigenvalue and singular chains.  Root finding costs about sqrt(p),
        so the narrow band of p keeps a round's work nearly the same for
        every seed."""
        p = rng.randrange(10 ** (digits - 1), 11 * 10 ** (digits - 2))
        q = rng.randrange(2, 10 ** max(1, digits // 3) + 2)
        while gcd(p, q) != 1:  # keep p whole: reducing p/q would shrink it
            q += 1
        big = Fraction(rng.choice((-1, 1)) * p, q)
        regular = {big: (rng.randint(1, 2),)}
        regular[rng.choice(SMALL_POOL)] = rng.choice(((1,), (1, 1), (2, 1)))
        if rng.random() < 0.5:
            regular[pencils.INF] = (1,)
        col = rng.choice((Star(0), Star(1), Star(1, (1,))))
        row = rng.choice((Star(0), Star(1), Star(1, (1,))))
        return extractor.weyr_char(regular, col, row)

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = _rng(self.name, seed, "pencils")
        cases = []
        for digits in self.tiers:
            for i in range(self.per_tier):
                om = self.planted(rng, digits)
                h = builder.random_equivalence(builder.build_pencil(om), rng.getrandbits(32))
                path = workdir / f"pencil-{digits:02d}-{i:02d}.json"
                path.write_text(json.dumps(h.to_json()))
                cases.append((digits, om, h, str(path)))
        return {"seed": seed, "cases": cases}

    def run_round(self, state: dict) -> RoundResult:
        result = RoundResult([], len(state["cases"]), 0)
        for _, _, _, path in state["cases"]:
            result.outputs.append(attempt(_call_cli, ["invariants", path]))
        result.failed = sum(isinstance(out, Failed) for out in result.outputs)
        return result

    def check(self, state: dict, outputs: list) -> list[str]:
        problems = []
        for (digits, om, _, path), out in zip(state["cases"], outputs):
            if isinstance(out, Failed):
                continue
            code, text = out
            if code != 0:
                problems.append(f"invariants {path} exited {code}")
            elif WeyrChar.from_json(json.loads(text)) != om:
                problems.append(f"invariants {path} gave {text.strip()}, planted {om.to_json()}")
        return problems

    def verify(self, state: dict, outputs: list) -> list[str]:
        """For every planted eigenvalue, the rank drop of H(lambda) equals the
        number of its Jordan blocks, w_1(lambda); ranks over Fractions, with
        no Smith form or root finding."""
        problems = []
        for _, om, h, path in state["cases"]:
            rho = pencils.normal_rank(h)
            if rho != om.rank:
                problems.append(f"{path}: normal rank {rho}, planted rank {om.rank}")
            for lam, w in om.regular:
                drop = rho - rmatrix.rank(pencils.evaluate(h, lam))
                if drop != w[0]:
                    problems.append(f"{path}: rank drop {drop} at {lam}, planted w1 {w[0]}")
        return problems


WORKLOADS = {w.name: w for w in (Roundtrip(), Campaign(), Concordance(), Spectrum())}
