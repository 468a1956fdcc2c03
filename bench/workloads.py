"""The benchmark's workloads: inputs made from a seed, task bodies, and the
reference check of every task's verdict.

Each workload is a fixed list of tasks run one at a time (a closed loop).
A task body calls trigvee through its module attributes, so that a traced
run sees every call; `check` compares the outputs with reference answers
from `oracle` or the catalog's closed forms and returns the disagreements.
A disagreement tagged "D" or "E" is one of the two known defects (ROADMAP
items D and E); the harness counts it as a failed task but not as a new
error.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from oracle import SCALE_RELATIVE_TOL, VERDICT_TOL
from trigvee import catalog, cms, configuration, constraints, veecheck, veefile, wdvv
from trigvee.errors import CollinearPair, NonScalarAction
from trigvee.multipoly import RatFunc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PERTURB = Fraction(101, 100)


@dataclass
class Finding:
    """One disagreement with the reference."""

    stage: str
    detail: str
    defect: str | None = None  # "D" / "E": a known defect from the ROADMAP


@dataclass
class Task:
    name: str
    spec: dict  # the generated inputs, hashed by the harness
    body: Callable  # body(tracer or None) -> output
    check: Callable  # check(output) -> list[Finding]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warm_up: Callable[[], None]
    cli: "CliRunner | None" = None  # set when tasks run in child processes

    def close(self) -> None:
        if self.cli is not None:
            self.cli.close()


def _derived_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _rat(rng: random.Random) -> Fraction:
    """A positive rational with small numerator and denominator."""
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _residual_findings(stage: str, value: float, cmax: float) -> list[Finding]:
    """A residual of a valid system at its solved coupling must pass."""
    if value < VERDICT_TOL:
        return []
    known = "D" if value / cmax**2 < SCALE_RELATIVE_TOL else None
    return [Finding(stage, f"residual {value:.3e} >= {VERDICT_TOL:g} at max|c| = {cmax:g}", known)]


def _must_fail(stage: str, value: float) -> list[Finding]:
    if value >= VERDICT_TOL:
        return []
    return [Finding(stage, f"residual {value:.3e} passes where the system must fail")]


def _wdvv_residuals(cfg, lambda2, point_seed) -> dict:
    """WDVV residuals at the solved coupling and at a 1% perturbed one."""
    return {
        "wdvv": wdvv.wdvv_residual(cfg, lambda2, seed=point_seed).aggregate,
        "wdvv_perturbed": wdvv.wdvv_residual(cfg, lambda2 * PERTURB, seed=point_seed).aggregate,
    }


def _wdvv_findings(out, cmax: float) -> list[Finding]:
    return _residual_findings("wdvv", out["wdvv"], cmax) + _must_fail(
        "wdvv_perturbed", out["wdvv_perturbed"]
    )


def _coupling_findings(report, expected_lambda2) -> list[Finding]:
    lam = report.lambda_solution
    if lam.status != "solved":
        return [Finding("lambda", f"status {lam.status}, expected solved")]
    if expected_lambda2 is not None and lam.lambda2 != expected_lambda2:
        return [Finding("lambda", f"lambda2 = {lam.lambda2}, closed form {expected_lambda2}")]
    return []


# ---------------------------------------------------------------------------
# rootsys-exact
# ---------------------------------------------------------------------------


def _root_task(name, roots, mults, expected_lambda2, point_seed) -> Task:
    n = len(roots[0])
    vee = expected_lambda2 is not None
    cmax = float(max(mults))

    def body(tracer):
        cfg = configuration.build_configuration(n, list(zip(roots, mults)))
        report = veecheck.full_check(cfg)
        out = {"report": report}
        if report.is_trig_vee and report.lambda_solution.status == "solved":
            out.update(_wdvv_residuals(cfg, report.lambda_solution.lambda2, point_seed))
        metric = cms.vee_form_metric(cfg)
        out["cms"] = cms.cms_identity_residual(cfg, metric, seed=point_seed).max_deviation
        return out

    def check(out) -> list[Finding]:
        report = out["report"]
        if report.is_trig_vee != vee:
            return [Finding("series", f"trig-vee verdict {report.is_trig_vee}, expected {vee}")]
        if not vee:
            return _must_fail("cms", out["cms"])
        found = _coupling_findings(report, expected_lambda2)
        if not report.is_irreducible:
            found.append(Finding("components", "root system reported reducible"))
        if "wdvv" not in out:
            return found + [Finding("wdvv", "no WDVV check ran")]
        found += _wdvv_findings(out, cmax)
        return found + _residual_findings("cms", out["cms"], cmax)

    spec = {"roots": len(roots), "mults": [str(m) for m in mults], "point_seed": point_seed}
    return Task(name, spec, body, check)


def rootsys_exact(seed: int, tiny: bool) -> Workload:
    """A_n and B_n at unit multiplicity, plus one negative per family."""
    rng = random.Random(f"rootsys-exact/{seed}")
    sizes = (3, 4) if tiny else (5, 6, 7, 8)
    negative_n = 3 if tiny else 6
    tasks = []
    for fam, roots_of, lambda2_of in (
        ("A", oracle.a_roots, oracle.a_n_lambda2),
        ("B", oracle.b_roots, oracle.b_n_lambda2),
    ):
        for n in sizes:
            roots = roots_of(n)
            tasks.append(
                _root_task(f"{fam}{n}", roots, [1] * len(roots), lambda2_of(n), _derived_seed(rng))
            )
        # the first simple root doubled; every choice of root breaks the
        # series condition, but the cost of finding that varies 0.7-1.2 s
        roots = roots_of(negative_n)
        mults = [2] + [1] * (len(roots) - 1)
        tasks.append(_root_task(f"{fam}{negative_n}-mult2", roots, mults, None, _derived_seed(rng)))
    warm = _root_task("warm", oracle.a_roots(2), [1, 1, 1], oracle.a_n_lambda2(2), 0)
    return Workload("rootsys-exact", tasks, lambda: warm.body(None))


# ---------------------------------------------------------------------------
# multiplicity-search
# ---------------------------------------------------------------------------


def _constraints_task(name, vectors, perturbed_index) -> Task:
    ones = [1] * len(vectors)
    perturbed = [2 if i == perturbed_index else 1 for i in range(len(vectors))]

    def body(tracer):
        return constraints.series_constraints(vectors)

    def check(cs) -> list[Finding]:
        found = []
        expected_polys = oracle.series_count(vectors)
        if len(cs.polynomials) != expected_polys:
            found.append(Finding("polys", f"{len(cs.polynomials)} polynomials, expected {expected_polys}"))
        if any(oracle.poly_value(c.poly.terms, ones) != 0 for c in cs.polynomials):
            found.append(Finding("unit", "a constraint is nonzero at unit multiplicities"))
        _inverse, det = oracle.gauss_jordan(oracle.gram(vectors, ones))
        if oracle.poly_value(cs.nondegeneracy.terms, ones) != det:
            found.append(Finding("nondegeneracy", f"det G(1) differs from {det}"))
        vanish = all(oracle.poly_value(c.poly.terms, perturbed) == 0 for c in cs.polynomials)
        if vanish != oracle.is_vee_system(vectors, perturbed):
            found.append(Finding("perturbed", f"constraints vanish = {vanish} at {perturbed}"))
        return found

    return Task(name, {"vectors": len(vectors), "perturbed": perturbed_index}, body, check)


def _search_task(name, vectors, search_seed, starts) -> Task:
    def body(tracer):
        return constraints.find_multiplicities(vectors, seed=search_seed, starts=starts)

    def check(solutions) -> list[Finding]:
        found = []
        for sol in solutions:
            mults = [sol[f"c{i + 1}"] for i in range(len(vectors))]
            if mults[0] != 1 or not oracle.is_vee_system(vectors, mults):
                found.append(Finding("search", f"certified {mults} fails the independent check"))
        return found

    return Task(name, {"seed": search_seed, "starts": starts}, body, check)


def _families_task(rng: random.Random) -> Task:
    """The family relations of B2, Prop4 and Prop5, each of which must pass,
    and a wrong relation for each, which must fail: six verify_family
    verdicts, one task (each verdict alone takes only 5-60 ms)."""
    cases = []  # (label, vectors, symbols, parametrization, expected verdict)

    b2 = [(1, 0), (0, 1), (1, 1), (1, -1)]
    t = RatFunc.variable(("cm", "cp", "t"), "t")
    p, q = rng.sample(range(1, 10), 2)
    b2_symbols = ("c1", "c2", "cp", "cm")
    cases += [("B2", b2, b2_symbols, {"c1": t, "c2": t}, True)]
    cases += [("B2-wrong", b2, b2_symbols, {"c1": p, "c2": q}, False)]

    pv = ("c1", "c2", "u")
    c1, c2, u = (RatFunc.variable(pv, v) for v in pv)
    prop4 = [(1, 0), (2, 0), (0, 1), (1, 1), (1, -1)]
    good = {"m1": c1, "m2": u * (c1 - c2) / (2 * c2), "m3": c2, "m4": u, "m5": u}
    prop4_symbols = ("m1", "m2", "m3", "m4", "m5")
    cases += [("Prop4", prop4, prop4_symbols, good, True)]
    cases += [("Prop4-wrong", prop4, prop4_symbols, dict(good, m2=u * (c1 - c2) / c2), False)]

    pv = ("s", "t")
    s, t = (RatFunc.variable(pv, v) for v in pv)
    half = Fraction(1, 2)
    prop5 = [(1, 0), (0, 1), (0, 2), (half, half), (half, -half), (half, 3 * half), (half, -3 * half)]
    good = {
        "c1": t * (3 * t - 2 * s) / (3 * t + 4 * s),
        "c2": 3 * t + 2 * s,
        "ct2": s,
        "ap": 3 * t,
        "am": 3 * t,
        "bp": t,
        "bm": t,
    }
    prop5_symbols = ("c1", "c2", "ct2", "ap", "am", "bp", "bm")
    cases += [("Prop5", prop5, prop5_symbols, good, True)]
    cases += [("Prop5-wrong", prop5, prop5_symbols, dict(good, c1=t), False)]

    def body(tracer):
        return [
            constraints.verify_family(vectors, par, symbols=symbols).passed
            for _label, vectors, symbols, par, _expected in cases
        ]

    def check(verdicts) -> list[Finding]:
        return [
            Finding(label, f"verdict {passed}, expected {expected}")
            for (label, _v, _s, _p, expected), passed in zip(cases, verdicts)
            if passed != expected
        ]

    spec = {label: {k: str(v) for k, v in par.items()} for label, _v, _s, par, _e in cases}
    return Task("families", spec, body, check)


def multiplicity_search(seed: int, tiny: bool) -> Workload:
    """Constraint extraction, multiplicity search and family verification."""
    rng = random.Random(f"multiplicity-search/{seed}")
    systems = [
        ("B3", oracle.b_roots(3)),
        ("A4", oracle.a_roots(4)),
        ("B4", oracle.b_roots(4)),
        ("A5", oracle.a_roots(5)),
    ]
    tasks = [
        _constraints_task(f"constraints:{name}", vecs, rng.randrange(len(vecs)))
        for name, vecs in (systems[:2] if tiny else systems)
    ]
    # The searches keep seed 0, the ROADMAP baseline's: a search's time
    # moves up to 2.5x with its seed, which would swamp any code change.
    searches = ("TenVector", "G2timesScaledA2", "B3")
    for name in searches[1:2] if tiny else searches:
        vectors = list(catalog.catalog_get(name).cfg.covectors())
        tasks.append(_search_task(f"search:{name}", vectors, 0, 2 if tiny else 12))
    tasks.append(_families_task(rng))

    b2 = [(1, 0), (0, 1), (1, 1), (1, -1)]
    warm = [
        _constraints_task("warm", b2, 0),
        _search_task("warm", b2, 0, 1),
        _families_task(random.Random(0)),
    ]
    return Workload("multiplicity-search", tasks, lambda: [w.body(None) for w in warm])


# ---------------------------------------------------------------------------
# catalog-sweep
# ---------------------------------------------------------------------------


def _catalog_params(name: str, rng: random.Random, scale: int, variant: int):
    """Random valid parameters for a catalog entry, multiplicities ~ scale."""

    def c():
        return scale * _rat(rng)

    if name == "A2":
        return {"ca": c(), "cb": c(), "cc": c()}
    if name == "B2":
        c1 = c()
        # every other task breaks c1 = c2, which makes it no vee-system
        c2 = c1 if variant % 2 == 0 else c1 * rng.choice([Fraction(1, 3), Fraction(1, 2), 2, 3])
        return {"c1": c1, "c2": c2, "cp": c(), "cm": c()}
    if name == "Prop4":
        c2, cp = c(), c()
        c1 = c2 * (1 + _rat(rng))
        return {"c1": c1, "ct1": cp * (c1 - c2) / (2 * c2), "c2": c2, "cp": cp, "cm": cp}
    if name == "Prop5":
        while True:
            t, s = _rat(rng), _rat(rng)
            if 3 * t != 2 * s:
                return {"t": scale * t, "s": scale * s}
    if name == "G2":
        return {"cs": c(), "cl": c()}
    if name == "G2timesScaledA2":
        cl = c()
        return {"cs": 3 * cl, "cl": cl, "cd": c()}
    if name == "TenVector":
        return {"scale": c()}
    if name == "OrthogonalPair":
        return {"c1": c(), "c2": c()}
    if name in ("A1", "A3", "A4"):
        return {"c": c()}
    if name in ("B3", "B4"):
        cs = c()
        # every other task uses one multiplicity, where a closed form is known
        return {"cs": cs, "cl": cs if variant % 2 == 0 else c()}
    raise KeyError(name)


def _closed_form_lambda2(entry) -> Fraction | None:
    """The coupling from a closed form, where one is known."""
    if entry.origin == "closed-form":
        return entry.expected_lambda2
    p = entry.params
    if entry.name == "TenVector":
        return oracle.TEN_VECTOR_LAMBDA2 * p["scale"]
    if entry.name in ("A3", "A4"):
        return oracle.a_n_lambda2(entry.cfg.dim, p["c"])
    if entry.name in ("B3", "B4") and p["cs"] == p["cl"]:
        return oracle.b_n_lambda2(entry.cfg.dim, p["cs"])
    return None


def _catalog_task(name, entry, metric_scale, point_seed) -> Task:
    covectors = entry.cfg.covectors()
    collinear = oracle.has_parallel_pair(covectors)
    vee = entry.expected_trig_vee
    status = entry.expected_lambda_status
    expected_lambda2 = _closed_form_lambda2(entry)
    cmax = float(max(abs(m) for m in entry.cfg.mults()))
    config_file = veefile.config_file_from_configuration(entry.cfg)

    def body(tracer):
        text = veefile.render_config_file(config_file)
        cfg = veefile.parse_config_file(text).build()
        report = veecheck.full_check(cfg)
        out = {"report": report}
        if report.is_trig_vee and report.lambda_solution.status == "solved":
            out.update(_wdvv_residuals(cfg, report.lambda_solution.lambda2, point_seed))
        metric = cms.vee_form_metric(cfg)
        try:
            out["cms"] = cms.cms_identity_residual(cfg, metric, seed=point_seed).max_deviation
        except CollinearPair:
            out["cms"] = "CollinearPair"
        if vee:
            try:
                res = cms.cms_to_vee(cfg, metric.scaled(metric_scale))
                out["to_vee"] = (res.is_trig_vee, res.component_scalars, res.component_dims)
            except NonScalarAction as exc:
                out["to_vee"] = f"NonScalarAction: {exc}"
        return out

    def check(out) -> list[Finding]:
        report = out["report"]
        if report.is_trig_vee != vee:
            return [Finding("series", f"trig-vee verdict {report.is_trig_vee}, expected {vee}")]
        found = []
        if vee and status is not None and report.lambda_solution.status != status:
            found.append(Finding("lambda", f"status {report.lambda_solution.status}, expected {status}"))
        elif vee and status == "solved":
            found += _coupling_findings(report, expected_lambda2)
        if "wdvv" in out:
            found += _wdvv_findings(out, cmax)
        if collinear:
            if out["cms"] != "CollinearPair":
                found.append(Finding("cms", "collinear covectors were accepted"))
        elif out["cms"] == "CollinearPair":
            found.append(Finding("cms", "CollinearPair raised on a non-collinear system"))
        elif vee:
            found += _residual_findings("cms", out["cms"], cmax)
        else:
            found += _must_fail("cms", out["cms"])
        if vee:
            expected = (True, (Fraction(metric_scale),), (entry.cfg.dim,))
            if isinstance(out["to_vee"], str):
                found.append(Finding("cms_to_vee", out["to_vee"], "E"))
            elif out["to_vee"] != expected:
                found.append(Finding("cms_to_vee", f"{out['to_vee']}, expected {expected}"))
        return found

    spec = {
        "entry": entry.name,
        "params": {k: str(v) for k, v in entry.params.items()},
        "metric_scale": metric_scale,
        "point_seed": point_seed,
    }
    return Task(name, spec, body, check)


# (multiplicity scale, metric scale) of the tasks of each catalog entry.
# Each task's multiplicities are random small rationals times its scale.
# Only the ends of the range are used: between them the absolute tolerance
# of defect D fails a valid system or not depending on the random
# multiplicities, which made the number of failed tasks depend on the seed.
CATALOG_SCALES = [(m, g) for m in (1, 10**6) for g in (1, 10**6) for _variant in range(2)]


def catalog_sweep(seed: int, tiny: bool) -> Workload:
    """Every catalog entry at random valid parameters, and TenVector at the
    multiplicity of ROADMAP item D: render -> parse -> check."""
    rng = random.Random(f"catalog-sweep/{seed}")
    slots = CATALOG_SCALES[:1] if tiny else CATALOG_SCALES
    tasks = []
    for name, _desc in catalog.catalog_list():
        for k, (scale, metric_scale) in enumerate(slots):
            entry = catalog.catalog_get(name, _catalog_params(name, rng, scale, k))
            tasks.append(_catalog_task(f"{name}#{k}", entry, metric_scale, _derived_seed(rng)))
    # ROADMAP item D names TenVector at multiplicity 10^3, between the scale
    # ends; at exactly 10^3 it fails the WDVV verdict on every seed.
    tenvector = catalog.catalog_get("TenVector", {"scale": Fraction(10**3)})
    tasks.append(_catalog_task("TenVector@1e3", tenvector, 1, _derived_seed(rng)))
    warm = _catalog_task("warm", catalog.catalog_get("A2"), 1, 0)
    return Workload("catalog-sweep", tasks, lambda: warm.body(None))


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs `python -m trigvee.cli` in child processes, one at a time."""

    def __init__(self):
        os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(ROOT, ".bench_runs"))
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.peak_rss_kb = 0

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def run(self, argv: list[str], tracer=None) -> tuple[int, str]:
        if tracer is None:
            cmd = [sys.executable, "-m", "trigvee.cli", *argv]
        else:
            snap_path = os.path.join(self.workdir, "trace.json")
            run_py = os.path.join(BENCH_DIR, "run.py")
            cmd = [sys.executable, run_py, "--cli-trace", snap_path, "--", *argv]
        with subprocess.Popen(
            cmd, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        ) as proc:
            try:
                output = proc.stdout.read().decode()
            except BaseException:
                proc.kill()
                raise
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            with open(snap_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), argv[0])
            os.remove(snap_path)
        return proc.returncode, output

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _kv(output: str) -> dict[str, str]:
    pairs = {}
    for line in output.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and " " not in key:
            pairs[key] = value
    return pairs


def _cli_task(runner: CliRunner, argv: list[str], check_kv, spec) -> Task:
    def body(tracer):
        return runner.run(argv + ["--report-kv"], tracer)

    def check(out) -> list[Finding]:
        code, output = out
        problem = check_kv(code, _kv(output), output)
        return [Finding(argv[0], f"{problem}; exit {code}; output {output[-300:]!r}")] if problem else []

    return Task(f"cli:{argv[0]}", dict(spec, argv=argv), body, check)


def cli_cold(seed: int, tiny: bool) -> Workload:
    """One fresh `python -m trigvee.cli` process per command on small .vee files."""
    rng = random.Random(f"cli-cold/{seed}")
    runner = CliRunner()
    if rng.random() < 0.5:
        entry = catalog.catalog_get("A2", {k: _rat(rng) for k in ("ca", "cb", "cc")})
    else:
        c1 = _rat(rng)
        entry = catalog.catalog_get("B2", {"c1": c1, "c2": c1, "cp": _rat(rng), "cm": _rat(rng)})
    lambda2 = str(entry.expected_lambda2)
    vectors = entry.cfg.covectors()
    runner.write("num.vee", veefile.render_config_file(veefile.config_file_from_configuration(entry.cfg)))
    b2 = [(1, 0), (0, 1), (1, 1), (1, -1)]
    runner.write("sym.vee", "dim 2\n" + "".join(
        f"vector {x} {y} mult ?{s}\n" for (x, y), s in zip(b2, ("c1", "c2", "cp", "cm"))
    ))
    point_seed = rng.randrange(1000)
    export = {"c1": _rat(rng), "cp": _rat(rng), "cm": _rat(rng)}
    export["c2"] = export["c1"]

    def search_ok(code, kv, output):
        if "solutions" not in kv:
            return "no solution count reported"
        sols = int(kv["solutions"])
        if code not in (0, 1) or (sols > 0) != (code == 0):
            return "search exit code and solution count disagree"
        for k in range(sols):
            mults = [Fraction(kv[f"solution_{k}_{s}"]) for s in ("c1", "c2", "cp", "cm")]
            if mults[2] != 1 or not oracle.is_vee_system(b2, mults):
                return f"certified {mults} fails the independent check"
        return None

    def export_ok(code, kv, output):
        rows = [line.split() for line in output.splitlines() if line.startswith("vector")]
        mults = [Fraction(r[-1]) for r in rows]
        want = [export[k] for k in ("c1", "c2", "cp", "cm")]
        if code != 0 or [tuple(int(x) for x in r[1:3]) for r in rows] != b2 or mults != want:
            return "exported file does not hold the requested B2"
        return None

    series = oracle.series_count(vectors)
    sym_series = oracle.series_count(b2)
    checks = [
        (["check", "num.vee"], lambda c, kv, o: None
         if c == 0 and kv.get("trig_vee") == "pass" and kv.get("lambda2") == lambda2
         else f"expected a pass with lambda2 = {lambda2}"),
        (["series", "num.vee"], lambda c, kv, o: None
         if c == 0 and kv.get("series") == "pass" and kv.get("series_checked") == str(series)
         else f"expected {series} passing series"),
        (["lambda", "num.vee"], lambda c, kv, o: None
         if c == 0 and kv.get("lambda2") == lambda2 else f"expected lambda2 = {lambda2}"),
        (["wdvv", "num.vee", "--seed", str(point_seed)], lambda c, kv, o: None
         if c == 0 and kv.get("wdvv") == "pass" else "expected a WDVV pass"),
        (["cms", "num.vee", "--seed", str(point_seed)], lambda c, kv, o: None
         if c == 0 and kv.get("cms_identity") == "pass" and kv.get("metric_series") == "pass"
         else "expected a CMS pass"),
        (["constraints", "sym.vee"], lambda c, kv, o: None
         if c == 0 and sum(k.startswith("constraint_") for k in kv) == sym_series
         else f"expected {sym_series} constraint polynomials"),
        (["family", "sym.vee", "--set", "c1=t", "--set", "c2=t"], lambda c, kv, o: None
         if c == 0 and kv.get("family") == "pass" else "expected the c1 = c2 family to pass"),
        # a fixed search seed, as in multiplicity-search
        (["search", "sym.vee", "--fix", "cp", "--seed", "0"], search_ok),
        (["catalog", "export", "B2", *(f"--param={k}={v}" for k, v in export.items())], export_ok),
    ]
    if tiny:
        checks = [checks[0], checks[6], checks[8]]
    spec = {"entry": entry.name, "params": {k: str(v) for k, v in entry.params.items()}}
    tasks = [_cli_task(runner, argv, ok, spec) for argv, ok in checks]
    return Workload("cli-cold", tasks, lambda: runner.run(["catalog", "list"]), cli=runner)


WORKLOADS = {
    "rootsys-exact": rootsys_exact,
    "multiplicity-search": multiplicity_search,
    "catalog-sweep": catalog_sweep,
    "cli-cold": cli_cold,
}
