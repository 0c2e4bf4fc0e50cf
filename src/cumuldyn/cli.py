"""Command-line interface: simulate, measure, fit, gof and sweep.

Every command writes CSV tables plus a ``meta.json`` sidecar into an output
directory.  Outputs carry no timestamps and all randomness is seeded, so a
command run twice with the same inputs produces byte-identical files.

Exit codes: 0 on success, 2 for usage or validation problems, 3 for I/O
failures.  A ``--config FILE`` of ``key=value`` lines can stand in for
flags; explicitly passed flags win on conflict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from itertools import count, pairwise
from operator import add
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .core import (
    BacklinkTable,
    DistributionFits,
    LinearFit,
    ModelParams,
    PathLengthTable,
    RatePredictions,
    SeriesPoint,
)
from .fitting import (
    PATHLENGTH_FAMILIES,
    classify_relative_cumulativeness,
    fit_series,
    geometric_gof,
    invention_rate,
    ols_fit,
    pathlength_gof,
    power_law_fit,
)
from .growth import GENERATOR_NAME, simulate
from .ingest import (
    TechnologyQuery,
    _raise_earliest,
    _read_columns,
    _read_text,
    build_graph,
    load_corpus,
)
from .measures import measure_checkpoints, measure_series, resolve_mode
from .predictions import rate_predictions

__all__ = ["main", "entry_point"]

_SERIES_COLUMNS = SeriesPoint._fields
_FIT_COLUMNS = ("quantity", "slope", "intercept", "r2", "se", "f", "n_obs")
# ModelParams takes m1 = m0 + 1, which a positive m0 below about 1.1e-16 leaves at 1.
_M0_TOO_SMALL = "must be large enough that m0 + 1 > 1"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence | str]) -> None:
    # csv writes each cell as str(cell), which for Python floats and numpy
    # float64 is the shortest repr that reads back to the same value.  A
    # table whose rows are str is already rendered: each row is finished
    # lines, built by its command the way csv would write them (see
    # cmd_simulate and _add_gof_rows), and goes out as it is.
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if rows and isinstance(rows[0], str):
            handle.writelines(rows)
        else:
            writer.writerows(rows)


class ReportBundle(NamedTuple):
    """Run metadata plus the tables a command returns for ``main`` to write.

    The metadata (command, resolved parameters, seed, package version)
    suffices to reproduce the run; tables map file names to (header, rows).
    ``diagnostics`` is written to ``meta.json`` as given, ``{}`` when None.
    ``warnings``, when not None, is written as the list of warnings the run
    raised, and ``engine``, when not None, as what the path engine resolved
    (its arithmetic ``mode``).
    """

    command: str
    params: dict
    tables: dict[str, tuple[Sequence[str], list]]
    diagnostics: dict | None = None
    warnings: list[str] | None = None
    engine: dict | None = None

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in self.tables.items():
            _write_csv(out_dir / name, header, rows)
        meta = {
            "command": self.command,
            "package": "cumuldyn",
            "version": __version__,
            "params": self.params,
            "diagnostics": self.diagnostics or {},
            "tables": sorted(self.tables),
        }
        if self.warnings is not None:
            meta["warnings"] = self.warnings
        if self.engine is not None:
            meta["engine"] = self.engine
        # One write of the whole document: json.dump with indent would stream
        # it through the pure-Python encoder in dozens of small writes.
        with open(out_dir / "meta.json", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_table(path: str, columns: tuple[str, ...]) -> tuple[list[list[str]], list]:
    """The cells of ``columns`` in a CSV table's non-blank rows, column by column.

    Reads as ``ingest`` reads a corpus file.  Also returns the table's error
    list, which starts with the first row short of ``columns``, if any; the
    cells that row lacks read as ``0``.
    """
    cells = _read_columns(path, columns, None, "column(s)")
    short = [column.index(None) for column in cells if None in column]
    if not short:
        return cells, []
    padded = [["0" if cell is None else cell for cell in column] for column in cells]
    return padded, [(min(short), "too few fields")]


# A table is checked one column at a time.  Each check adds the first row
# it rejects (counted from 0 without blank lines) to the table's error list
# as (row, message), in the order a row meets the checks; _raise_earliest
# reports the earliest row and its first failed check as file:line: message.


def _convert(cells: list[str], kind: Callable, errors: list) -> list:
    """``kind`` of each cell; from the first cell it rejects on, the values are 0."""
    values: list = []
    try:
        values.extend(map(kind, cells))
    except ValueError as exc:
        errors.append((len(values), str(exc)))
        values += [0] * (len(cells) - len(values))
    return values


def _flag(errors: list, rejected: np.ndarray, message: Callable[[int], str]) -> None:
    if rejected.any():
        row = int(rejected.argmax())
        errors.append((row, message(row)))


def _column(
    errors: list, cells: list[str], kind: Callable, name: str, low: float = 0, high=math.inf
) -> tuple[list, np.ndarray]:
    """``kind`` of each cell, as read and as an array (of Python ints where an int
    column outgrows int64), checked to lie in [low, high]."""
    values = _convert(cells, kind, errors)
    try:
        array = np.array(values, dtype=np.int64 if kind is int else None)
    except OverflowError:
        array = np.array(values, dtype=object)
    with np.errstate(invalid="ignore"):  # nan lies in no range
        outside = ~((low <= array) & (array <= high))
    _flag(errors, outside, lambda row: f"{name} must lie in [{low}, {high}], got {values[row]}")
    return values, array


def _repeated(*keys: np.ndarray) -> np.ndarray:
    """Which rows repeat the keys of an earlier row."""
    order = np.lexsort(keys[::-1])
    same = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in keys])
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:][same]] = True
    return repeated


def _load_series(path: str) -> tuple[SeriesPoint, ...]:
    """The checkpoints of a series table: n rising from 1 to at most 2**53, mipl a
    whole number in [0, n - 1], id in [0, (n - 1)/2], ed at least 0, ipl in [0, mipl].

    n nodes have at most n(n - 1)/2 internal edges, so every measured series
    passes; the bounds keep the fit's sums finite and its rates below 1."""
    (n, *cells), errors = _read_table(path, _SERIES_COLUMNS)
    sizes, size = _column(errors, n, int, "n", 1)
    _flag(errors, size > 2**53, lambda row: f"n must be at most 2**53, got {sizes[row]}")
    _flag(
        errors, np.concatenate(([False], size[1:] <= size[:-1])),
        lambda row: f"n must rise from row to row, got {sizes[row]} after {sizes[row - 1]}",
    )
    floats = []
    for column, name in zip(cells, _SERIES_COLUMNS[1:]):
        floats.append(got := _convert(column, float, errors))
        _flag(errors, ~np.isfinite(got), lambda row: f"{name} must be finite, got {got[row]}")
    ids, ipls, mipls, eds = floats
    longest, mean = np.array(mipls), np.array(ipls)
    with np.errstate(invalid="ignore"):  # inf and nan are flagged above
        whole = (longest % 1 == 0) & (0 <= longest) & (longest < size)
        outside = ~((0 <= mean) & (mean <= longest))
    _flag(
        errors, ~whole,
        lambda row: f"mipl must be a whole number in [0, {sizes[row] - 1}], got {mipls[row]}",
    )
    for got, name in ((ids, "id"), (eds, "ed")):
        _flag(errors, np.array(got) < 0, lambda row: f"{name} must not be negative, got {got[row]}")
    most = (np.minimum(size, 2**53) - 1) / 2  # an n past 2**53 is flagged above
    _flag(
        errors, np.array(ids) > most,
        lambda row: f"id must be at most (n - 1)/2 = {most[row]}, got {ids[row]}",
    )
    _flag(errors, outside, lambda row: f"ipl must lie in [0, {mipls[row]}], got {ipls[row]}")
    _raise_earliest(path, errors)
    if len(sizes) < 3:  # what fit_series needs
        raise ValueError(f"{path}: need at least 3 rows to fit, got {len(sizes)}")
    return tuple(map(SeriesPoint, sizes, ids, ipls, map(int, mipls), eds))


def _load_backlinks(path: str, n: int) -> list[int]:
    """m_1..m_n from a table that lists each ordinal 0..n-1 exactly once; ordinal j
    can cite at most its j earlier nodes, so its m lies in 0..j."""
    (ordinal, m), errors = _read_table(path, ("ordinal", "m"))
    ordinals, ranks = _column(errors, ordinal, int, "ordinal", 0, n - 1)
    _flag(errors, _repeated(ranks), lambda row: f"duplicate ordinal {ordinals[row]}")
    links, degrees = _column(errors, m, int, "m", 0, n - 1)
    _flag(
        errors, degrees > ranks,
        lambda row: f"m must be at most ordinal {ordinals[row]}, got {links[row]}",
    )
    _raise_earliest(path, errors)
    missing = np.flatnonzero(np.bincount(ranks, minlength=n) == 0).tolist()
    if missing:
        raise ValueError(
            f"{path}: no row for ordinal {missing[0]} "
            f"({len(missing)} of ordinals 0..{n - 1} missing)"
        )
    return list(map(links.__getitem__, np.argsort(ranks).tolist()))


def _count(raw: str) -> int | float:
    """An integer count, or a float one (``inf`` where float mode overflowed)."""
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _read_distributions(path: str, table: type, columns: tuple[str, ...], parse_count: Callable):
    """The ``table`` (BacklinkTable or PathLengthTable) of distributions by prefix size.

    Each row names a prefix size n >= 1, a key in 0..n-1 (each (n, key)
    once), a count >= 0 and, in a fourth column if any, a value in [0, 1].
    The table's rows are the runs of one n, by n, in file order within an
    n; an n's fault (see ``table.from_runs``) is reported at its first row.
    """
    (n, key, count, *value), errors = _read_table(path, columns)
    name = columns[1]
    sizes, size = _column(errors, n, int, "n", 1)
    keys, keyed = _column(errors, key, int, name)
    _flag(
        errors, keyed > size - 1,
        lambda row: f"{name} must be at most n - 1 = {sizes[row] - 1}, got {keys[row]}",
    )
    _flag(
        errors, _repeated(size, keyed),
        lambda row: f"repeated row for n={sizes[row]}, {name}={keys[row]}",
    )
    counts, _ = _column(errors, count, parse_count, "count")
    values = [_column(errors, cells, float, columns[3], 0, 1)[1] for cells in value]
    _raise_earliest(path, errors)
    if not sizes:
        raise ValueError(f"{path}: no rows")
    order = np.argsort(size, kind="stable")
    ranked = size[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    firsts = order[starts].tolist()
    made, faults = table.from_runs(
        [sizes[row] for row in firsts], [*starts.tolist(), len(order)], keyed[order],
        list(map(counts.__getitem__, order.tolist())), *(array[order] for array in values),
    )
    _raise_earliest(path, [(firsts[row], message) for row, message in faults])
    return made


def _load_backlink_dists(path: str) -> BacklinkTable:
    """Histograms by prefix size; each (n, m) once, with n >= 1 and 0 <= m <= n-1."""
    return _read_distributions(path, BacklinkTable, ("n", "m", "count"), int)


def _load_pathlen_dists(path: str) -> PathLengthTable:
    """Distributions by prefix size; each (n, k) once, with n >= 1 and 0 <= k <= n-1."""
    return _read_distributions(path, PathLengthTable, ("n", "k", "count", "normalized"), _count)


def _query_from_args(args: argparse.Namespace) -> TechnologyQuery:
    prefixes = []
    for chunk in args.prefix or []:
        prefixes.extend(p.strip() for p in chunk.split(",") if p.strip())
    if not prefixes:
        raise ValueError("at least one --prefix is required")
    return TechnologyQuery(args.name, prefixes, args.year_cutoff)


def _fit_row(quantity: str, fit: LinearFit) -> list:
    fields = ("slope", "intercept", "r_squared", "residual_se", "f_statistic", "n_obs")
    return [quantity, *(getattr(fit, name) for name in fields)]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> ReportBundle:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    try:  # each message names the parameter at fault: q, m1 or n_nodes
        graph = simulate(ModelParams(q=args.q, m1=args.m1), args.n, args.seed)
    except ValueError as exc:
        raise ValueError(f"--q {args.q} --m1 {args.m1} --n {args.n}: {exc}") from None
    # Finished lines, as csv writes them: an id is S and digits, which need no quoting.
    ids = graph.node_ids
    citing = np.repeat(np.arange(graph.n_nodes), graph.backlink_counts).tolist()
    return ReportBundle(
        command="simulate",
        params={"q": args.q, "m1": args.m1, "n": args.n, "seed": args.seed, "rng": GENERATOR_NAME},
        tables={
            "nodes.csv": (("node_id", "year", "classes"), [f"{i},,SIM\n" for i in ids]),
            "edges.csv": (
                ("citing_id", "cited_id", "origin"),
                [f"{ids[i]},{ids[j]},\n" for i, j in zip(citing, graph.indices.tolist())],
            ),
        },
    )


def _measure_technology(
    corpus, query: TechnologyQuery, args: argparse.Namespace, measure: Callable
) -> tuple:
    """The technology's graph, ``measure`` of it at ``--stride``, its ingest
    diagnostics and the arithmetic that ``--mode`` resolves to."""
    graph, diagnostics = build_graph(
        corpus, query, origin=args.origin, granted_only=args.granted_only
    )
    measured = measure(graph, args.stride, args.mode)
    return graph, measured, diagnostics.as_dict(), resolve_mode(args.mode, graph.n_nodes)


def _corpus_params(args: argparse.Namespace) -> dict:
    """The flags that measure and sweep share, as both record them in ``params``."""
    names = ("nodes", "edges", "year_cutoff", "origin", "granted_only", "stride", "mode")
    return {name: getattr(args, name) for name in names}


def cmd_measure(args: argparse.Namespace) -> ReportBundle:
    query = _query_from_args(args)
    corpus = load_corpus(args.nodes, args.edges)
    graph, checkpoints, diagnostics, mode = _measure_technology(
        corpus, query, args, measure_checkpoints
    )
    return ReportBundle(
        command="measure",
        params={
            **_corpus_params(args),
            "technology": query.name,
            "prefixes": sorted(query.class_prefixes),
        },
        tables={
            "series.csv": (_SERIES_COLUMNS, [cp.point for cp in checkpoints]),
            # Each histogram's counts are keyed by m in ascending order.
            "backlink_dist.csv": (
                ("n", "m", "count"),
                [[cp.n, m, c] for cp in checkpoints for m, c in cp.backlink_dist.counts.items()],
            ),
            # One string of finished lines per checkpoint, as csv would write them:
            # counts and normalized both run over k = 0..mipl in key order.
            "pathlen_dist.csv": (
                ("n", "k", "count", "normalized"),
                [
                    "".join(
                        f"{cp.n},{k},{paths},{w!r}\n"
                        for k, paths, w in zip(
                            count(), cp.path_dist.counts.values(),
                            cp.path_dist.normalized.values(),
                        )
                    )
                    for cp in checkpoints
                ],
            ),
            "backlinks.csv": (
                ("ordinal", "node_id", "m"),
                list(zip(count(), graph.node_ids, graph.backlink_counts.tolist())),
            ),
        },
        diagnostics={**diagnostics, "self_citations_dropped": corpus.self_citations_dropped},
        engine={"mode": mode},
    )


def cmd_fit(args: argparse.Namespace) -> ReportBundle:
    series = _load_series(args.series)
    backlinks_path = args.backlinks
    if backlinks_path is None:
        sibling = Path(args.series).parent / "backlinks.csv"
        if sibling.exists():
            backlinks_path = str(sibling)
    n_final = series[-1].n
    try:
        backlinks = _load_backlinks(backlinks_path, n_final) if backlinks_path else None
    except ValueError as exc:  # the backlinks must match the series, which may be at fault
        raise ValueError(f"{exc} (for {args.series}, which ends at n = {n_final})") from None

    fitted = {quantity: fit_series(series, quantity) for quantity in ("id", "ipl", "mipl")}
    q_hat, m0_hat = fitted["id"].slope, fitted["id"].intercept
    if q_hat <= 0:
        raise ValueError(
            f"{args.series}: fitted id slope {q_hat!r} is not positive; rate predictions "
            "are undefined for this series"
        )
    rates = rate_predictions(q_hat, m0_hat, n_final, backlinks=backlinks)
    return ReportBundle(
        command="fit",
        params={"series": args.series, "backlinks": backlinks_path, "n_final": n_final},
        tables={
            "fits.csv": (_FIT_COLUMNS, [_fit_row(q, fit) for q, fit in fitted.items()]),
            "rates.csv": (RatePredictions._fields, [rates]),
        },
    )


def _read_fitted_params(path: str) -> tuple[float, float]:
    """The slope q and intercept m0 of the one ``id`` row, both positive and finite."""
    (quantities, slope, intercept), errors = _read_table(path, ("quantity", "slope", "intercept"))
    slopes = _convert(slope, float, errors)
    intercepts = _convert(intercept, float, errors)
    is_id = np.array([quantity == "id" for quantity in quantities], dtype=bool)
    _flag(errors, is_id & (is_id.cumsum() > 1), lambda row: "repeated row for quantity id")
    for got, name in ((slopes, "id slope q"), (intercepts, "id intercept m0")):
        bad = is_id & ~(np.isfinite(got) & np.greater(got, 0))
        _flag(errors, bad, lambda row: f"{name} must be positive and finite, got {got[row]}")
    _flag(
        errors, is_id & (np.add(intercepts, 1.0) == 1.0),
        lambda row: f"id intercept m0 {_M0_TOO_SMALL}, got {intercepts[row]}",
    )
    _raise_earliest(path, errors)
    if "id" in quantities:
        row = quantities.index("id")
        return slopes[row], intercepts[row]
    raise ValueError(f"{path}: no 'id' row to take fitted q and m0 from")


def _warn(warned: list[str], message: str) -> None:
    """Append ``message`` to a run's warnings and print it as one stderr line."""
    warned.append(message)
    print(f"cumuldyn: warning: {message}", file=sys.stderr)


def _parse_families(raw: str) -> list[str]:
    """The comma-separated ``--families`` value, each a known path-length family, once."""
    families = [f.strip() for f in raw.split(",") if f.strip()]
    if not families:
        raise ValueError(f"--families names no family: {raw!r}")
    for i, family in enumerate(families):
        if family not in PATHLENGTH_FAMILIES:
            raise ValueError(
                f"--families: unknown family {family!r}, expected some of "
                f"{', '.join(PATHLENGTH_FAMILIES)}"
            )
        if family in families[:i]:
            raise ValueError(f"--families: family {family!r} given twice in {raw!r}")
    return families


def _model_reprs(fit: DistributionFits) -> list[str]:
    """The repr of each model value, as csv writes it.  Binomial-type rows of one
    n' hold the same values, so each distinct block, bit for bit, is formatted once."""
    if fit.family != "binomial-type":
        return list(map(repr, fit.model))
    values = np.array(fit.model)
    made: dict[bytes, list[str]] = {}
    reprs: list[str] = []
    for lo, hi in pairwise(fit.bounds):
        key = values[lo:hi].tobytes()
        if key not in made:
            made[key] = list(map(repr, fit.model[lo:hi]))
        reprs += made[key]
    return reprs


def _add_gof_rows(
    target: str, ns: list[int], fits: list[DistributionFits],
    summary_rows: list[tuple], point_rows: list[str], warned: list[str],
) -> None:
    """The table rows and warnings of the checkpoints of sizes ``ns``.

    ``fits`` holds one fit of every checkpoint per family.  Rows go
    checkpoint by checkpoint, family by family; only the rows outlive the
    call.  Summary rows are tuples for csv; a point row is the finished
    lines of one (checkpoint, family) block of ``gof_points.csv``.  Every
    fit has the same layout and empirical column, so each checkpoint's
    ``value,empirical,`` cells are formatted once for all families; each
    line adds the block's ``n,target,family,`` prefix and the model float's
    repr (see _model_reprs), which is what csv writes.  No cell needs csv's
    quoting: each is a number, a target or a family name that
    ``_parse_families`` checked.
    """
    bounds = fits[0].bounds
    models = [_model_reprs(fit) for fit in fits]
    for row, n in enumerate(ns):
        lo, hi = bounds[row], bounds[row + 1]
        cells = [f"{k},{e}," for k, e in enumerate(fits[0].empirical[lo:hi])]
        for fit, reprs in zip(fits, models):
            summary_rows.append(
                (n, target, fit.family, fit.plot_correlation[row], *fit.chi_square[row])
            )
            prefix = f"{n},{target},{fit.family},"
            point_rows.append(prefix + f"\n{prefix}".join(map(add, cells, reprs[lo:hi])) + "\n")
            for message in fit.warnings[row]:
                _warn(warned, f"n={n} {target} {fit.family}: {message}")


def cmd_gof(args: argparse.Namespace) -> ReportBundle:
    families = _parse_families(args.families)
    if args.fits is not None:
        if args.q is not None or args.m0 is not None:
            raise ValueError("--fits and --q/--m0 exclude each other")
        q_hat, m0_hat = _read_fitted_params(args.fits)
    elif args.q is not None and args.m0 is not None:
        q_hat, m0_hat = args.q, args.m0
        for flag, value in (("--q", q_hat), ("--m0", m0_hat)):
            if not 0 < value < math.inf:
                raise ValueError(f"{flag} must be positive and finite, got {value}")
        if m0_hat + 1.0 == 1.0:
            raise ValueError(f"--m0 {_M0_TOO_SMALL}, got {m0_hat}")
    else:
        raise ValueError("either --fits or both --q and --m0 are required")
    params = ModelParams(q=q_hat, m1=m0_hat + 1.0)

    summary_rows: list[tuple] = []
    point_rows: list[str] = []
    warned: list[str] = []
    if args.backlink_dist:
        hists = _load_backlink_dists(args.backlink_dist)
        _add_gof_rows(
            "backlinks", hists.ns, [geometric_gof(hists, params)],
            summary_rows, point_rows, warned,
        )
    if args.pathlen_dist:
        dists = _load_pathlen_dists(args.pathlen_dist)
        _add_gof_rows(
            "pathlengths", dists.ns, [pathlength_gof(dists, family) for family in families],
            summary_rows, point_rows, warned,
        )
    if not summary_rows:
        raise ValueError("nothing to check: pass --backlink-dist and/or --pathlen-dist")

    summary = ("n", "target", "family", "correlation", "chi2", "dof", "p_value")
    points = ("n", "target", "family", "value", "empirical", "model")
    return ReportBundle(
        command="gof",
        params={
            "q": q_hat, "m0": m0_hat, "backlink_dist": args.backlink_dist,
            "pathlen_dist": args.pathlen_dist, "families": families,
        },
        tables={
            "gof_summary.csv": (summary, summary_rows),
            "gof_points.csv": (points, point_rows),
        },
        warnings=warned,
    )


def _read_tech_table(path: str) -> dict[str, set[str]]:
    columns, errors = _read_table(path, ("group_name", "prefix"))
    names, prefixes = ([cell.strip() for cell in column] for column in columns)
    blank = [not (name and prefix) for name, prefix in zip(names, prefixes)]
    _flag(errors, np.array(blank, dtype=bool), lambda row: "empty group_name or prefix")
    _raise_earliest(path, errors)
    techs: dict[str, set[str]] = {}
    for name, prefix in zip(names, prefixes):
        techs.setdefault(name, set()).add(prefix)
    if not techs:
        raise ValueError(f"{path}: no technologies listed")
    return techs


def _sweep_one(corpus, name, prefixes, args, warned) -> tuple[list, dict]:
    """The technology's ``sweep.csv`` row, [tech, n, id, ipl, q, p, rate], and its diagnostics."""
    query = TechnologyQuery(name, prefixes, args.year_cutoff)
    graph, series, diagnostics, mode = _measure_technology(corpus, query, args, measure_series)
    q_hat = p_hat = math.nan
    if len(series) >= 3:
        q_hat = fit_series(series, "id").slope
        p_hat = fit_series(series, "ipl").slope
    else:
        _warn(warned, f"{name}: only {len(series)} checkpoint(s) at stride {args.stride}; "
              "slopes reported as nan")
    try:
        rate = invention_rate(graph)
    except ValueError:
        _warn(warned, f"{name}: missing years, invention rate reported as nan")
        rate = math.nan
    last = series[-1]
    return (
        [name, last.n, last.id, last.ipl, q_hat, p_hat, rate],
        {**diagnostics, "mode": mode},
    )


def cmd_sweep(args: argparse.Namespace) -> ReportBundle:
    techs = _read_tech_table(args.tech_table)
    corpus = load_corpus(args.nodes, args.edges)
    names = sorted(techs)
    warned: list[str] = []
    rows, technologies = [], {}
    for name in names:
        row, technologies[name] = _sweep_one(corpus, name, techs[name], args, warned)
        rows.append(row)
    _, ns, ids, ipls, qs, _, rates = zip(*rows)

    labels = [""] * len(rows)
    cross_rows = []
    # Every measured technology has n >= 1, so only its id can leave it unlabelled.
    classifiable = [i for i, id_ in enumerate(ids) if id_ > 0]
    rated = [(q, rate) for q, rate in zip(qs, rates) if 0 < q < math.inf and 0 < rate < math.inf]

    def id_ipl():
        return [
            _fit_row("id_on_ipl", ols_fit(ipls, ids)) + ["", ""],
            _fit_row("ipl_on_id", ols_fit(ids, ipls)) + ["", ""],
        ]

    def relative():
        points = [(float(ns[i]), ids[i]) for i in classifiable]
        found, (exponent, prefactor, fit) = classify_relative_cumulativeness(points)
        for i, label in zip(classifiable, found):
            labels[i] = label
        return [_fit_row("id_on_n_loglog", fit) + [exponent, prefactor]]

    def power_law():
        exponent, prefactor, fit = power_law_fit(*zip(*rated))
        return [_fit_row("rate_on_q_loglog", fit) + [exponent, prefactor]]

    # Each cross fit: what it is, which technologies it needs 3 of, the fit.
    cross_fits = [
        ("pairwise id/ipl fit", "", rows, id_ipl),
        ("relative-cumulativeness labels", " with positive id", classifiable, relative),
        ("power-law fit", " with positive rate and q", rated, power_law),
    ]
    if len(rows) < 3:
        _warn(warned, "fewer than 3 technologies; cross-technology fits skipped")
        cross_fits = []
    for what, which, eligible, fit in cross_fits:
        if len(eligible) < 3:
            _warn(warned, f"fewer than 3 technologies{which}; {what} skipped")
            continue
        try:
            cross_rows += fit()
        except ValueError as exc:
            _warn(warned, f"{what} skipped: {exc}")

    return ReportBundle(
        command="sweep",
        params={**_corpus_params(args), "tech_table": args.tech_table, "technologies": names},
        tables={
            "sweep.csv": (
                ("tech", "n", "id", "ipl", "q", "p", "rate", "cumulativeness"),
                [[*row, label] for row, label in zip(rows, labels)],
            ),
            "cross_fits.csv": (
                ("relation",) + _FIT_COLUMNS[1:] + ("exponent", "prefactor"), cross_rows
            ),
        },
        diagnostics={
            "self_citations_dropped": corpus.self_citations_dropped,
            "technologies": technologies,
        },
        warnings=warned,
    )


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _out_dir(raw: str) -> str:
    if not raw:  # Path("") is the working directory
        raise argparse.ArgumentTypeError("expected a directory, got ''")
    return raw


def _in_file(raw: str) -> str:
    if not raw:  # an optional one would read as absent
        raise argparse.ArgumentTypeError("expected a file, got ''")
    return raw


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process (about 1.5 ms): parse_args leaves the parser
    # as it was, so every main() call in one interpreter can share it.
    parser = argparse.ArgumentParser(
        prog="cumuldyn",
        description="Measure and model the cumulativeness of technologies.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags that measure and sweep share.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--nodes", required=True, type=_in_file, help="nodes CSV path")
    shared.add_argument("--edges", required=True, type=_in_file, help="citations CSV path")
    shared.add_argument("--year-cutoff", type=int, default=None, help="keep years <= cutoff")
    shared.add_argument("--origin", choices=("all", "app"), default="all")
    shared.add_argument("--granted-only", action="store_true")
    shared.add_argument("--stride", type=int, default=100, help="checkpoint spacing")
    shared.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")

    sim = sub.add_parser(
        "simulate", help="grow a synthetic citation corpus", allow_abbrev=False
    )
    sim.add_argument("--q", type=float, required=True, help="knowledge-need growth rate")
    sim.add_argument("--m1", type=float, required=True, help="initial knowledge need (> 1)")
    sim.add_argument("--n", type=int, required=True, help="number of inventions")
    sim.add_argument("--seed", type=int, default=0, help="random seed: any non-negative integer")

    mea = sub.add_parser(
        "measure", help="measure indicators of one technology", allow_abbrev=False,
        parents=[shared],
    )
    mea.add_argument("--name", default="technology", help="technology name")
    mea.add_argument(
        "--prefix",
        action="append",
        help="class prefix selecting the technology (repeatable or comma-separated)",
    )

    fit = sub.add_parser(
        "fit", help="fit growth rates to a measured series", allow_abbrev=False
    )
    fit.add_argument("--series", required=True, type=_in_file, help="series.csv path")
    fit.add_argument(
        "--backlinks",
        type=_in_file,
        help="backlinks.csv path (default: sibling of --series when present)",
    )

    gof = sub.add_parser(
        "gof", help="goodness of fit of the predicted distributions", allow_abbrev=False
    )
    gof.add_argument("--backlink-dist", type=_in_file, help="backlink_dist.csv path")
    gof.add_argument("--pathlen-dist", type=_in_file, help="pathlen_dist.csv path")
    gof.add_argument("--fits", type=_in_file, help="fits.csv path to read fitted q and m0 from")
    gof.add_argument("--q", type=float, help="fitted id slope")
    gof.add_argument("--m0", type=float, help="fitted id intercept")
    gof.add_argument(
        "--families",
        default="binomial-type",
        help="comma list of distinct path-length families to try, among "
        + ", ".join(PATHLENGTH_FAMILIES),
    )

    swp = sub.add_parser(
        "sweep", help="measure and compare many technologies", allow_abbrev=False,
        parents=[shared],
    )
    swp.add_argument(
        "--tech-table", required=True, type=_in_file, help="CSV of group_name,prefix rows"
    )
    for command, func in zip(
        (sim, mea, fit, gof, swp), (cmd_simulate, cmd_measure, cmd_fit, cmd_gof, cmd_sweep)
    ):
        command.add_argument("--out", required=True, type=_out_dir, help="output directory")
        command.add_argument("--config", type=_in_file, help="key=value file standing in for flags")
        command.set_defaults(func=func)
    return parser


def _with_config(argv: list[str], path: str) -> list[str]:
    """``argv`` with the ``key=value`` lines of a UTF-8 config file as flags before its own.

    Each key is a flag of the command, spelled with ``_`` or ``-``: a switch takes
    true or false, any other flag its value as written.  A flag on the command
    line drops its config entry, so it wins, and a config --prefix never adds to
    one there.  A leading byte-order mark is skipped.
    """
    commands = next(action.choices for action in _build_parser()._actions
                    if action.dest == "command")
    if argv[0] not in commands:  # left to argparse
        return argv
    flags = commands[argv[0]]._option_string_actions
    explicit = {flags.get(token.partition("=")[0]) for token in argv[1:]}
    entries: dict[argparse.Action, list[str]] = {}
    # The lines open() would give: universal newlines, and no split at \x85 or
    # \u2028 as str.splitlines makes.
    lines = io.StringIO(_read_text(path), newline=None)
    for line_num, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_num}: expected key=value")
        key, _, value = (part.strip() for part in stripped.partition("="))
        flag = "--" + key.replace("_", "-")
        action = flags.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"{path}:{line_num}: unknown key {key!r} for {argv[0]}")
        if action.nargs != 0:
            entries[action] = [f"{flag}={value}"]
        elif value.lower() in ("true", "false"):
            entries[action] = [flag] if value.lower() == "true" else []
        else:
            raise ValueError(f"{path}:{line_num}: {flag} is true or false, got {value!r}")
    config = [token for action, tokens in entries.items() if action not in explicit
              for token in tokens]
    return [argv[0], *config, *argv[1:]]


def _config_path(argv: list[str]) -> str | None:
    """The ``--config`` path; a missing or empty one, or one that starts with ``-``,
    is left to argparse."""
    for i, token in enumerate(argv):
        if token == "--config":
            path = argv[i + 1] if i + 1 < len(argv) else "-"
            return None if not path or path.startswith("-") else path
        if token.startswith("--config="):
            return token.split("=", 1)[1] or None
    return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_file = _config_path(argv)
        if config_file is not None:
            argv = _with_config(argv, config_file)
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.config != config_file:  # a path that reads as a flag, or a second path
            raise ValueError("--config takes one path, which must not start with '-'")
        args.func(args).write(Path(args.out))
    except ValueError as exc:  # CorpusError included
        print(f"cumuldyn: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cumuldyn: {exc}", file=sys.stderr)
        return 3
    return 0


def entry_point() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
