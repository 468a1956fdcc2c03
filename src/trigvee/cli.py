"""Command line interface.

Exit codes: 0 when every requested check passes, 2 on usage errors, OSError
and any errors.InputError, 1 on any other VeeError (a failed check prints its
exact witness).  --report-kv adds stable 'key = value' lines to the report.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import isfinite

from . import catalog as catalog_mod
from .cms import Metric, check_series_with_metric, cms_identity_residual, vee_form_metric
from .configuration import VConfiguration
from .constraints import find_multiplicities, series_constraints, verify_family
from .errors import DegenerateParametrization, InputError, InvalidParams, ParseError, VeeError
from .exactnum import RatMatrix
from .multipoly import expression_variables, parse_expression
from .veecheck import check_series_condition, full_check, solve_lambda_squared
from .veefile import (
    ConfigFile, config_file_from_configuration, parse_config_file, parse_rational,
    render_config_file,
)
from .wdvv import wdvv_residual


class Report:
    """Collects human-readable lines and stable key/value pairs.  A value is
    kept as given and formatted only when --report-kv prints it."""

    def __init__(self, kv_mode: bool):
        self.kv_mode = kv_mode
        self.lines: list[str] = []
        self.pairs: list[tuple[str, object]] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def kv(self, key: str, value) -> None:
        self.pairs.append((key, value))

    def emit(self) -> None:
        # every pair is formatted before the first print, so a value that
        # cannot be formatted leaves stdout empty
        pairs = [f"{key} = {value}" for key, value in self.pairs] if self.kv_mode else []
        for text in self.lines + pairs:
            print(text)


def _read_text(path: str) -> str:
    """A file's text, or stdin's for '-', decoded as strict UTF-8 either way."""
    try:
        if path == "-":
            # the raw bytes: a C or POSIX locale reads stdin with surrogateescape
            raw = getattr(sys.stdin, "buffer", None)
            return raw.read().decode("utf-8") if raw else sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise InvalidParams(f"{name} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_file(path: str) -> ConfigFile:
    return parse_config_file(_read_text(path))


def _load_symbolic(path: str) -> ConfigFile:
    cf = _load_file(path)
    if not all(e.symbol is not None for e in cf.entries):
        raise InvalidParams(
            "this command needs every multiplicity symbolic (write 'mult ?name')"
        )
    return cf


def _rational_arg(token: str, context: str) -> Fraction:
    """A rational spelled as in a .vee file: `[-]digits[/digits]`, ASCII digits."""
    try:
        return parse_rational(token)
    except ParseError:
        raise InvalidParams(f"{context}: {token!r} is not a rational number") from None


def _load_metric(spec: str, cfg: VConfiguration) -> Metric:
    if spec == "vee":
        return vee_form_metric(cfg)
    rows = []
    for raw in _read_text(spec).splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            rows.append([_rational_arg(tok, "metric file") for tok in line])
    if len(rows) != cfg.dim or any(len(r) != cfg.dim for r in rows):
        raise InvalidParams(f"metric file must hold a {cfg.dim}x{cfg.dim} rational matrix")
    matrix = RatMatrix(rows)
    if not matrix.is_symmetric():
        raise InvalidParams("metric file must hold a symmetric matrix")
    if matrix.det() == 0:
        raise InvalidParams("metric file must hold a nonsingular matrix")
    return Metric(matrix)


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise InvalidParams(f"{flag} must be at least 1, got {value}")


def _check_sampling(args) -> None:
    _check_count("--points", args.points)
    if not (isfinite(args.tol) and args.tol > 0):
        raise InvalidParams(f"--tol must be a finite number above 0, got {args.tol}")
    if not isfinite(args.margin):
        raise InvalidParams(f"--margin must be a finite number, got {args.margin}")


def _lambda_text(sol) -> str:
    if sol.status == "solved":
        return str(sol.lambda2)
    if sol.status == "any_lambda":
        return "ANY (identity is vacuous)"
    return "NO SOLUTION"


def cmd_check(args, report: Report) -> int:
    cfg = _load_file(args.file).build()
    result = full_check(cfg)
    if result.degenerate:
        report.line("trig-vee: FAIL (degenerate form)")
        report.kv("trig_vee", "fail")
        report.kv("degenerate", "yes")
        return 1
    sol = result.lambda_solution
    verdict = "PASS" if result.is_trig_vee else "FAIL"
    irr = "yes" if result.is_irreducible else "no"
    report.line(f"trig-vee: {verdict}, irreducible: {irr}, lambda2 = {_lambda_text(sol)}")
    if not result.series.passed:
        for f in result.series.failures():
            members = ",".join(cfg.entries[j].label for j in f.member_indices)
            report.line(
                f"series failure: base {cfg.entries[f.base_index].label} "
                f"members ({members}) residual {f.residual}"
            )
    if sol.status == "no_solution" and sol.witness is not None:
        w = sol.witness
        report.line(
            f"coupling mismatch at 2-form component {w.component}: "
            f"{w.lhs} != {w.rhs}"
        )
    report.kv("trig_vee", "pass" if result.is_trig_vee else "fail")
    report.kv("degenerate", "no")
    report.kv("irreducible", irr)
    report.kv("lambda2_status", sol.status)
    if sol.status == "solved":
        report.kv("lambda2", sol.lambda2)
    return 0 if result.defines_wdvv_solution else 1


def cmd_series(args, report: Report) -> int:
    cfg = _load_file(args.file).build()
    if cfg.gram_det == 0:
        report.line("series: FAIL (degenerate form)")
        report.kv("series", "fail")
        report.kv("degenerate", "yes")
        return 1
    rep = check_series_condition(cfg)
    total = len(rep.totals)
    bad = rep.failures()
    if rep.passed:
        report.line(f"series: PASS ({total} series checked)")
    else:
        report.line(f"series: FAIL ({len(bad)} of {total} residuals nonzero)")
        for f in bad:
            members = ",".join(cfg.entries[j].label for j in f.member_indices)
            report.line(
                f"base {cfg.entries[f.base_index].label} series {f.series_index} "
                f"members ({members}): residual {f.residual}"
            )
    report.kv("series", "pass" if rep.passed else "fail")
    report.kv("series_checked", total)
    for f in bad:
        report.kv(f"residual_{f.base_index}_{f.series_index}", f.residual)
    return 0 if rep.passed else 1


def cmd_lambda(args, report: Report) -> int:
    cfg = _load_file(args.file).build()
    sol = solve_lambda_squared(cfg)
    report.line(f"lambda2: {_lambda_text(sol)}")
    if sol.witness is not None:
        w = sol.witness
        report.line(f"mismatch at 2-form component {w.component}: {w.lhs} != {w.rhs}")
    report.kv("lambda2_status", sol.status)
    if sol.status == "solved":
        report.kv("lambda2", sol.lambda2)
    return 0 if sol.status in ("solved", "any_lambda") else 1


def cmd_wdvv(args, report: Report) -> int:
    _check_sampling(args)
    cf = _load_file(args.file)
    cfg = cf.build()
    if cf.lambda2 is not None:
        lam2 = cf.lambda2
        source = "file"
    else:
        sol = solve_lambda_squared(cfg)
        if sol.status != "solved":
            raise InvalidParams(
                f"coupling status is {sol.status}; declare lambda2 in the file to force a value"
            )
        lam2 = sol.lambda2
        source = "solved"
    res = wdvv_residual(cfg, lam2, num_points=args.points, seed=args.seed, margin_floor=args.margin)
    ok = res.aggregate < args.tol
    report.line(
        f"wdvv residual: {res.aggregate:.3e} over {args.points} points "
        f"(lambda2 = {lam2}, {source}), tol {args.tol:g}: {'PASS' if ok else 'FAIL'}"
    )
    report.kv("lambda2", lam2)
    report.kv("lambda2_source", source)
    report.kv("points", args.points)
    report.kv("seed", args.seed)
    report.kv("residual", f"{res.aggregate:.16e}")
    report.kv("wdvv", "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_cms(args, report: Report) -> int:
    _check_sampling(args)
    cfg = _load_file(args.file).build()
    metric = _load_metric(args.metric, cfg)
    series = check_series_with_metric(cfg, metric)
    res = cms_identity_residual(
        cfg, metric, num_points=args.points, seed=args.seed, margin_floor=args.margin
    )
    ok = res.max_deviation < args.tol
    report.line(
        f"cms identity: constant ~ {res.mean:.12g}, max deviation {res.max_deviation:.3e}, "
        f"tol {args.tol:g}: {'PASS' if ok else 'FAIL'}"
    )
    report.line(
        f"eigenvalue ~ {res.eigenvalue_estimate:.12g} (deviation {res.eigenvalue_deviation:.3e})"
    )
    report.line(f"metric series condition: {'PASS' if series.passed else 'FAIL'}")
    report.kv("cms_identity", "pass" if ok else "fail")
    report.kv("constant", f"{res.mean:.16g}")
    report.kv("max_deviation", f"{res.max_deviation:.16e}")
    report.kv("eigenvalue", f"{res.eigenvalue_estimate:.16g}")
    report.kv("eigenvalue_deviation", f"{res.eigenvalue_deviation:.16e}")
    report.kv("metric_series", "pass" if series.passed else "fail")
    report.kv("points", args.points)
    report.kv("seed", args.seed)
    return 0 if ok else 1


def cmd_constraints(args, report: Report) -> int:
    cf = _load_symbolic(args.file)
    cs = series_constraints(cf.vectors(), symbols=cf.symbols())
    report.line(f"{len(cs.polynomials)} constraint polynomials in {', '.join(cs.symbols)}")
    for k, c in enumerate(cs.polynomials):
        text = str(c.poly)  # once, for the line and the pair
        report.line(f"[{k}] base {cs.symbols[c.base_index]} series {c.series_index}: {text}")
        report.kv(f"constraint_{k}", text)
    text = str(cs.nondegeneracy)
    report.line(f"nondegeneracy: {text}")
    report.kv("nondegeneracy", text)
    return 0


def cmd_family(args, report: Report) -> int:
    cf = _load_symbolic(args.file)
    assignments: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise InvalidParams(f"--set needs sym=expression, got {item!r}")
        sym, expr = item.split("=", 1)
        sym = sym.strip()
        if sym not in cf.symbols():
            raise InvalidParams(f"--set: unknown multiplicity symbol {sym!r}")
        assignments[sym] = expr
    # every expression is lexed before any is parsed
    names = {sym: sorted(expression_variables(expr)) for sym, expr in assignments.items()}
    parametrization = {
        sym: parse_expression(assignments[sym], variables) for sym, variables in names.items()
    }
    try:
        verdict = verify_family(cf.vectors(), parametrization, symbols=cf.symbols())
    except DegenerateParametrization as exc:
        report.line(f"family: FAIL ({exc})")
        report.kv("family", "degenerate")
        return 1
    if verdict.passed:
        report.line("family: PASS (all constraints vanish identically)")
    else:
        report.line(f"family: FAIL ({len(verdict.failing)} constraints do not vanish)")
        for c, residue in zip(verdict.failing, verdict.residual_numerators):
            report.line(f"base {cf.symbols()[c.base_index]} series {c.series_index}: {residue}")
    report.kv("family", "pass" if verdict.passed else "fail")
    report.kv("failing", len(verdict.failing))
    return 0 if verdict.passed else 1


def cmd_search(args, report: Report) -> int:
    _check_count("--starts", args.starts)
    cf = _load_symbolic(args.file)
    fix = args.fix or cf.symbols()[0]
    if fix not in cf.symbols():
        raise InvalidParams(f"--fix: unknown multiplicity symbol {fix!r}")
    solutions = find_multiplicities(
        cf.vectors(), fix_symbol=fix, seed=args.seed, symbols=cf.symbols(), starts=args.starts
    )
    if not solutions:
        report.line("search: no exactly-verified solution found (existence undecided)")
        report.kv("solutions", 0)
        return 1
    report.line(f"search: {len(solutions)} exactly-verified solution(s), {fix} fixed to 1")
    for k, sol in enumerate(solutions):
        body = ", ".join(f"{sym} = {val}" for sym, val in sol.items())
        report.line(f"[{k}] {body}")
        for sym, val in sol.items():
            report.kv(f"solution_{k}_{sym}", val)
    report.kv("solutions", len(solutions))
    return 0


def _parse_catalog_params(items) -> dict[str, Fraction]:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise InvalidParams(f"--param needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        params[key.strip()] = _rational_arg(val.strip(), "--param")
    return params


def cmd_catalog(args, report: Report) -> int:
    if args.action == "list":
        for name, desc in catalog_mod.catalog_list():
            report.line(f"{name}: {desc}")
            report.kv(f"entry_{name}", desc)
        return 0
    if not args.name:
        raise InvalidParams(f"catalog {args.action} needs an entry name")
    entry = catalog_mod.catalog_get(args.name, _parse_catalog_params(args.param))
    if args.action == "show":
        report.line(f"{entry.name}: {entry.description}")
        report.line(f"dim {entry.cfg.dim}, {len(entry.cfg.entries)} covectors")
        params = ", ".join(f"{k} = {v}" for k, v in entry.params.items())
        report.line(f"params: {params}")
        for e in entry.cfg.entries:
            coords = " ".join(str(x) for x in e.covector)
            report.line(f"  {e.label}: ({coords}) mult {e.mult}")
        if entry.expected_trig_vee is not None:
            report.line(f"expected trig-vee: {'pass' if entry.expected_trig_vee else 'fail'}")
        if entry.expected_lambda2 is not None:
            report.line(f"expected lambda2: {entry.expected_lambda2} [{entry.origin}]")
        elif entry.expected_lambda_status is not None:
            report.line(f"expected coupling status: {entry.expected_lambda_status}")
        report.kv("name", entry.name)
        report.kv("dim", entry.cfg.dim)
        report.kv("covectors", len(entry.cfg.entries))
        return 0
    cf = config_file_from_configuration(entry.cfg, lambda2=entry.expected_lambda2)
    report.line(render_config_file(cf).removesuffix("\n"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vee",
        description="Exact trigonometric vee-system checks, WDVV and CMS verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, points=False, metric=False):
        p.add_argument("--report-kv", action="store_true", help="emit stable key = value lines")
        if points:
            p.add_argument("--points", type=int, default=10, help="number of sample points")
            p.add_argument("--seed", type=int, default=0, help="sampling seed")
            p.add_argument("--tol", type=float, default=1e-8, help="numeric tolerance")
            p.add_argument("--margin", type=float, default=0.1, help="minimum |sin a(x)| at samples")
        if metric:
            p.add_argument(
                "--metric", default="vee", help="'vee' for the intrinsic form or a matrix file"
            )

    p = sub.add_parser("check", help="full verdict: series condition, irreducibility, coupling")
    p.add_argument("file", help=".vee file, or - for stdin")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("series", help="exact series condition with residuals")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("lambda", help="solve the coupling lambda^2")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("wdvv", help="numeric WDVV commutator residual")
    p.add_argument("file")
    add_common(p, points=True)
    p.set_defaults(func=cmd_wdvv)

    p = sub.add_parser("cms", help="CMS pair identity and eigenvalue estimate")
    p.add_argument("file")
    add_common(p, points=True, metric=True)
    p.set_defaults(func=cmd_cms)

    p = sub.add_parser("constraints", help="constraint polynomials for symbolic multiplicities")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("family", help="verify a multiplicity parametrization exactly")
    p.add_argument("file")
    p.add_argument("--set", action="append", metavar="SYM=EXPR", help="parametrize a symbol")
    add_common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser(
        "search",
        help="one member of each exact family at G(1, ..., 1) and I, else a numeric search; "
        "exactly certified multiplicities",
    )
    p.add_argument("file")
    p.add_argument("--fix", help="symbol normalized to 1 (default: first)")
    p.add_argument(
        "--seed", type=int, default=0, help="seed of the numeric fallback (unused when exact)"
    )
    p.add_argument(
        "--starts",
        type=int,
        default=12,
        help="random starts of the numeric fallback (unused when exact)",
    )
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="built-in configurations")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    add_common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    report = Report(args.report_kv)
    try:
        code = args.func(args, report)
        report.emit()
        return code
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VeeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # an int read or printed past Python's decimal digit limit: a `dim`,
        # or a result that in-limit inputs build (a coupling, a product)
        if not str(exc).startswith("Exceeds the limit"):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a number has more than {limit} decimal digits", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
