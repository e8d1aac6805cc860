"""The three benchmark workloads, driven through the public `sfdsim` API.

Each workload is a closed loop with one client: an op starts only after the
previous one has returned. An op's inputs come from `make_input(i)`, a pure
function of the workload seed and the op index, and are generated outside
the timed region, as are the correctness checks in `check`. Only `run` is
timed.

Calls go through module attributes (`sfdsim.run_simulation`, `cli.main`),
looked up at call time, so the traced run can wrap them from outside.
Nothing here uses names that ROADMAP items are set to delete
(`SimConfig(compiled=...)`, `ValidatedModel.compiled`, `run_sweep`'s
`max_workers`, engine internals).
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import sfdsim
from sfdsim import cli

STOCKS = ("AccumulatedVinasse", "AccumulatedSludge", "TotalCost")
YEAR_DAYS = 365.0
AC6_DAYS = tuple(float(t) for t in range(180, 361, 20))
DOSES = (0.0, 5.0, 10.0, 20.0, 40.0)
# Every 6000 kg x 2 trucks policy with a pickup interval of at most 30 days
# is feasible at every dose in DOSES; 45 and 60 days are not at high doses.
SHORT_INTERVALS = (10.0, 15.0, 30.0)
INTERVALS = (10.0, 15.0, 30.0, 45.0, 60.0)
CORPUS_T_END = 60.0


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _firings(start: float, interval: float, t_end: float) -> int:
    """Event firings in (0, t_end] for a schedule on the whole-day grid."""
    if start > t_end:
        return 0
    count = 1 if interval == 0 else int((t_end - start) // interval) + 1
    return count - 1 if start == 0 else count


def _evaluations(method: str, steps: int, fired: int) -> int:
    """Model evaluations of one run: one per grid point (four per step for
    RK4) plus one per fired event."""
    per_step = 4 if method == "rk4" else 1
    return per_step * steps + 1 + fired


def _counts(runs, steps, fired, evaluations, calibrate_evaluations) -> dict[str, int]:
    """Per-op work counts, computed from an op's configs and outputs, keyed
    by the per-layer metric they are reported as."""
    return {"scenarios.runs_per_op": runs, "engine.steps": steps,
            "engine.events_fired": fired, "engine.evaluations": evaluations,
            "scenarios.calibrate.evaluations": calibrate_evaluations}


def mass_balance_errors(spec, traj) -> list[str]:
    """Per-stock balance: final = initial + inflows - outflows + events."""
    problems = []
    for s in spec.stocks:
        terms = [s.initial, traj.event_deltas[s.name]]
        for f in spec.flows:
            if f.target == s.name:
                terms.append(traj.flow_integrals[f.name])
            if f.source == s.name:
                terms.append(-traj.flow_integrals[f.name])
        final = traj.final(s.name)
        scale = max(1.0, abs(final), sum(abs(v) for v in terms))
        if abs(final - sum(terms)) > 1e-6 * scale:
            problems.append(f"mass balance of {s.name}: final {final!r} != {sum(terms)!r}")
    return problems


class PlantYear:
    """A year of the built-in plant with noisy weather, RK4, every row kept."""

    name = "plant_year"
    warmup_ops = 4

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.base = sfdsim.build_baseline()
        sfdsim.validate_model(self.base)

    def make_input(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        noise = rng.uniform(0.5, 2.0)
        dose = rng.choice(DOSES)
        text = (f"scenario Weather{i} {{\n  set NoiseStdDev = {noise!r}\n"
                f"  set Dose = {dose!r}\n}}\n")
        return {"text": text, "noise_seed": rng.randrange(1 << 31)}

    def run(self, inp: dict) -> dict:
        scenario = sfdsim.parse_scenario(inp["text"])
        spec = sfdsim.apply_scenario(self.base, scenario)
        config = sfdsim.SimConfig(t_end=YEAR_DAYS, dt=1.0, method="rk4",
                                  seed=inp["noise_seed"], record_every=1)
        traj = sfdsim.run_simulation(spec, config)
        return {
            "spec": spec,
            "traj": traj,
            "csv": traj.to_csv(),
            "events_csv": traj.events_to_csv(),
            "svg": sfdsim.render_chart(traj, STOCKS),
            "summary": sfdsim.summarize(traj),
        }

    def check(self, inp: dict, out: dict) -> list[str]:
        spec, traj = out["spec"], out["traj"]
        problems = mass_balance_errors(spec, traj)
        capacity = spec.param("TotalCapacity")
        peak = traj.peak("AccumulatedVinasse")
        if peak > capacity:
            problems.append(f"pond {peak!r} exceeds TotalCapacity {capacity!r}")
        return problems

    def digest_parts(self, out: dict):
        yield out["csv"]
        yield out["events_csv"]
        yield out["svg"]
        yield repr(sorted(out["summary"].items()))

    def counts(self, inp: dict, out: dict) -> dict[str, int]:
        traj = out["traj"]
        fired = len({(r.t, r.event) for r in traj.events})
        steps = int(YEAR_DAYS)
        return _counts(1, steps, fired, _evaluations("rk4", steps, fired), 0)


class PolicyBatch:
    """Decision-support studies: policy grid, Dose sweep and KEvap fit."""

    name = "policy_batch"
    warmup_ops = 2

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self._truth: dict[float, tuple] = {}

    def setup(self) -> None:
        self.base = sfdsim.build_baseline()
        sfdsim.validate_model(self.base)
        self.config = sfdsim.SimConfig(t_end=YEAR_DAYS, dt=1.0, method="euler")

    def _observations(self, dose: float) -> tuple[tuple[float, ...], float]:
        """AC6 observations of the true model at `dose`, and the SSE of the
        calibration's start point (the centre of the KEvap bounds)."""
        if dose not in self._truth:
            spec = self.base.with_params({"Dose": dose})
            truth = sfdsim.run_simulation(spec, self.config)
            observed = tuple(truth.at("AccumulatedVinasse", t) for t in AC6_DAYS)
            start = sfdsim.run_simulation(spec.with_params({"KEvap": 0.0055}), self.config)
            start_sse = sum((start.at("AccumulatedVinasse", t) - v) ** 2
                            for t, v in zip(AC6_DAYS, observed))
            self._truth[dose] = (observed, start_sse)
        return self._truth[dose]

    def make_input(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        dose = rng.choice(DOSES)
        short = rng.choice(SHORT_INTERVALS)
        other = rng.choice([v for v in INTERVALS if v != short])
        grid = sfdsim.PolicyGrid(
            intervals=tuple(sorted((short, other))),
            truck_capacities=(rng.choice((1500.0, 3000.0, 4500.0)), 6000.0),
            truck_counts=(2.0,),
        )
        sweep = rng.sample([round(v * 0.25, 2) for v in range(161)], 4)
        observed, start_sse = self._observations(dose)
        problem = sfdsim.CalibrationProblem(
            param_names=("KEvap",),
            bounds=((0.001, 0.01),),
            column="AccumulatedVinasse",
            observed_times=AC6_DAYS,
            observed_values=observed,
        )
        return {"dose": dose, "grid": grid, "sweep": sweep, "problem": problem,
                "start_sse": start_sse}

    def run(self, inp: dict) -> dict:
        spec = self.base.with_params({"Dose": inp["dose"]})
        return {
            "policy": sfdsim.optimize_transport_policy(spec, inp["grid"], self.config),
            "sweep": sfdsim.run_sweep(spec, "Dose", inp["sweep"], self.config),
            "fit": sfdsim.calibrate(spec, inp["problem"], self.config, max_passes=2),
        }

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = []
        policy = out["policy"]
        feasible = [r.total_cost for r in policy.rows if r.feasible]
        if not policy.best.feasible or policy.best.total_cost != min(feasible):
            problems.append(f"best policy {policy.best} is not the cheapest feasible row")
        got = [r.value for r in out["sweep"].rows]
        if got != [float(v) for v in inp["sweep"]]:
            problems.append(f"sweep rows {got} not in input order {inp['sweep']}")
        if out["fit"].sse > inp["start_sse"]:
            problems.append(f"calibrated SSE {out['fit'].sse!r} above start {inp['start_sse']!r}")
        return problems

    def digest_parts(self, out: dict):
        yield out["policy"].to_csv()
        yield out["sweep"].to_csv()
        fit = out["fit"]
        yield repr((sorted(fit.params.items()), fit.sse, fit.passes, fit.evaluations))

    def counts(self, inp: dict, out: dict) -> dict[str, int]:
        steps = int(YEAR_DAYS)
        fired = []
        for row in out["policy"].rows:
            fired.append(_firings(row.interval, row.interval, YEAR_DAYS))
        pickup = self.base.events[0]
        baseline_fired = _firings(pickup.start, pickup.interval, YEAR_DAYS)
        fired += [baseline_fired] * (len(out["sweep"].rows) + out["fit"].evaluations)
        return _counts(len(fired), steps * len(fired), sum(fired),
                       sum(_evaluations("euler", steps, n) for n in fired),
                       out["fit"].evaluations)


def corpus_model(rng: random.Random, index: int) -> tuple[str, tuple[float, float]]:
    """A lint-clean chain of 2-6 stocks with one event, as model text.

    At least one stock is drained at a constant rate above its supply, so
    the conserving clamp fires. Returns the text and the event's
    (start, interval).
    """
    n = rng.randint(2, 6)
    feed = round(rng.uniform(5.0, 50.0), 3)
    params = [f"  param Feed = {feed!r} [kg/day]",
              f"  param Swing = {rng.randint(5, 40)} [day]",
              f"  param Half = {round(rng.uniform(10.0, 200.0), 2)!r} [kg]"]
    stocks, flows = [], ["  flow feed : -> Tank0 = max(0, drive) [kg/day]"]
    starved = rng.randrange(n)
    for i in range(n):
        stocks.append(f"  stock Tank{i} = {round(rng.uniform(0.0, 100.0), 2)!r} [kg]")
        target = f"Tank{i + 1}" if i + 1 < n else ""
        if i == starved:
            params.append(f"  param Rate{i} = {round(feed * rng.uniform(1.5, 3.0), 3)!r} [kg/day]")
            text = f"Rate{i}"
        else:
            style = rng.randrange(3)
            params.append(f"  param Rate{i} = {round(rng.uniform(0.05, 0.6), 4)!r} [1/day]")
            if style == 0:
                text = f"Rate{i} * Tank{i}"
            elif style == 1:
                text = f"min(Rate{i} * Feed, Tank{i})"
            else:
                text = f"Rate{i} * Feed * Tank{i} / (Tank{i} + Half)"
        name = "pass" if target else "drain"
        flows.append(f"  flow {name}{i} : Tank{i} -> {target} = {text} [kg/day]")
    interval = float(rng.choice((0, 7, 10, 14, 30)))
    start = float(rng.randint(1, 40)) if interval == 0 else float(rng.randint(1, int(interval)))
    tank = f"Tank{rng.randrange(n)}"
    if rng.random() < 0.5:
        action = f"{tank} -= min({tank}, Half)"
    else:
        action = f"{tank} += Half / 2"
    lines = [f"model Corpus{index} {{", *params, "", *stocks, "",
             "  aux drive = Feed * (1 + 0.5 * sin(t / Swing)) [kg/day]",
             "  aux load = if(Tank0 > Half, Tank0 - Half, 0) [kg]",
             *flows, "",
             f"  event flush every {interval:g} start {start:g} {{",
             f"    {action}", "  }", "}"]
    return "\n".join(lines) + "\n", (start, interval)


class ModelCorpus:
    """A model author linting, formatting and simulating distinct models
    through the CLI, in process."""

    name = "model_corpus"
    warmup_ops = 20

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        text = sfdsim.format_model(sfdsim.build_baseline())
        sfdsim.validate_model(sfdsim.parse_model(text))

    def make_input(self, i: int) -> dict:
        text, schedule = corpus_model(_rng(self.seed, i), i)
        path = self.work_dir / f"corpus{i}.sfd"
        path.write_text(text)
        return {"text": text, "schedule": schedule, "path": path,
                "csv": self.work_dir / f"corpus{i}.csv"}

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code if isinstance(exit_.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    def run(self, inp: dict) -> dict:
        path, csv = str(inp["path"]), str(inp["csv"])
        return {
            "lint": self._cli(["lint", path]),
            "fmt": self._cli(["fmt", path]),
            "simulate": self._cli(["simulate", "--model", path,
                                   "--t-end", f"{CORPUS_T_END:g}", "--out", csv]),
        }

    def check(self, inp: dict, out: dict) -> list[str]:
        """Also reads the written CSV into `out` for the digest, and removes
        the op's files."""
        problems = []
        for command in ("lint", "fmt", "simulate"):
            code, stdout, stderr = out[command]
            if code != 0:
                problems.append(f"{command} exited {code}: {(stdout + stderr).strip()[:200]}")
        if sfdsim.parse_model(out["fmt"][1]) != sfdsim.parse_model(inp["text"]):
            problems.append("fmt output does not re-parse to the same model")
        csv_path = inp["csv"]
        out["csv"] = csv_path.read_text() if csv_path.exists() else ""
        rows = out["csv"].count("\n") - 1
        if rows != int(CORPUS_T_END) + 1:
            problems.append(f"CSV has {rows} data rows, expected {int(CORPUS_T_END) + 1}")
        for leftover in self.work_dir.glob(f"{inp['path'].stem}.*"):
            leftover.unlink()
        return problems

    def digest_parts(self, out: dict):
        yield repr([out[c][0] for c in ("lint", "fmt", "simulate")])
        yield out["lint"][1]
        yield out["fmt"][1]
        yield out["csv"]

    def counts(self, inp: dict, out: dict) -> dict[str, int]:
        steps = int(CORPUS_T_END)
        fired = _firings(*inp["schedule"], CORPUS_T_END)
        return _counts(1, steps, fired, _evaluations("euler", steps, fired), 0)


WORKLOADS = {w.name: w for w in (PlantYear, PolicyBatch, ModelCorpus)}
