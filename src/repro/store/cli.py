"""``python -m repro.store`` — inspect and maintain a durable run store.

Examples::

    python -m repro.store --store runs/ ls
    python -m repro.store --store runs/ show 3
    python -m repro.store --store runs/ show 6e7f2a1c
    python -m repro.store --store runs/ diff 3 7
    python -m repro.store diff BENCH_PR6.json BENCH_CI.json --section kernel
    python -m repro.store --store runs/ gc --purge-quarantine
    python -m repro.store --store runs/ export 3 --dest triage/

``diff`` walks two reports (stored runs by id, or plain JSON files such
as the ``BENCH_*.json`` timing baselines) and prints every leaf that
changed, with relative deltas on numeric values — the campaign/figure
regression-triage loop in one command.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Iterator, List, Optional, Tuple

from ..errors import StoreError
from .runstore import RunStore

#: The environment variable ``--store`` defaults to.
ENV_STORE_DIR = "REPRO_STORE_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Inspect/maintain a repro durable run store "
        "(see docs/store.md).",
    )
    parser.add_argument(
        "--store",
        type=str,
        default=os.environ.get(ENV_STORE_DIR) or None,
        metavar="DIR",
        help=f"store directory (default: ${ENV_STORE_DIR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ls", help="list recorded runs and unit totals")

    show = sub.add_parser("show", help="show one run (#id) or unit (key prefix)")
    show.add_argument("target", help="run id (number) or unit-key hex prefix")

    diff = sub.add_parser(
        "diff", help="compare two runs' reports (or two JSON files)"
    )
    diff.add_argument("a", help="run id or JSON file path")
    diff.add_argument("b", help="run id or JSON file path")
    diff.add_argument(
        "--section",
        type=str,
        default=None,
        help="restrict to one top-level key (e.g. summary, kernel)",
    )

    gc = sub.add_parser("gc", help="drop artifacts no ledger row references")
    gc.add_argument(
        "--purge-quarantine",
        action="store_true",
        help="also delete quarantined (corrupt) payloads",
    )

    export = sub.add_parser("export", help="copy one run's outputs to a dir")
    export.add_argument("run_id", type=int)
    export.add_argument("--dest", type=str, required=True)
    return parser


def _open_store(args) -> RunStore:
    path = args.store
    if not path:
        raise StoreError(
            f"no store directory: pass --store or set ${ENV_STORE_DIR}"
        )
    if not os.path.isdir(path):
        raise StoreError(f"store directory does not exist: {path}")
    return RunStore(path)


def _stamp(epoch: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(epoch))


# -- ls / show --------------------------------------------------------------------


def _cmd_ls(store: RunStore) -> int:
    totals = store.ledger.totals()
    print(
        f"store {store.root}: {totals['units']} units "
        f"({totals['executions']} executions, {totals['hits']} replays), "
        f"{totals['runs']} runs, "
        f"{len(store.artifacts.quarantined())} quarantined"
    )
    runs = store.ledger.runs()
    if runs:
        print()
        print(f"{'run':>4}  {'recorded':19}  {'units':>5}  {'replayed':>8}  name")
        for row in runs:
            print(
                f"{row['run_id']:>4}  {_stamp(row['created_at']):19}  "
                f"{row['units_total']:>5}  {row['units_replayed']:>8}  "
                f"{row['name']}"
            )
    by_experiment: dict = {}
    for unit in store.ledger.units():
        by_experiment[unit["experiment_id"]] = (
            by_experiment.get(unit["experiment_id"], 0) + 1
        )
    if by_experiment:
        print()
        for experiment_id in sorted(by_experiment):
            print(f"{by_experiment[experiment_id]:>6} x {experiment_id}")
    return 0


def _cmd_show(store: RunStore, target: str) -> int:
    if target.isdigit():
        row, report_text, _ = store.run_report(int(target))
        print(f"run #{row['run_id']}: {row['name']}")
        print(f"recorded:  {_stamp(row['created_at'])}")
        print(f"command:   {row['command']}")
        print(f"params:    {row['params_json']}")
        print(
            f"units:     {row['units_total']} total, "
            f"{row['units_replayed']} replayed from the ledger"
        )
        if report_text:
            print()
            print(report_text.rstrip("\n"))
        return 0
    matches = [
        unit
        for unit in store.ledger.units()
        if unit["unit_key"].startswith(target)
    ]
    if not matches:
        raise StoreError(f"no run id or unit-key prefix matches {target!r}")
    if len(matches) > 1:
        raise StoreError(
            f"ambiguous unit-key prefix {target!r} "
            f"({len(matches)} matches); give more hex digits"
        )
    unit = matches[0]
    print(f"unit {unit['unit_key']}")
    print(f"experiment: {unit['experiment_id']}")
    print(f"scale/seed: {unit['scale']:g} / {unit['seed']}")
    print(f"params:     {unit['params_json']}")
    print(f"artifact:   {unit['artifact']}")
    print(
        f"executions: {unit['executions']}   replays: {unit['hits']}   "
        f"recorded: {_stamp(unit['created_at'])}"
    )
    return 0


# -- diff -------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def iter_report_diff(
    a, b, path: str = "", rtol: float = 0.0, atol: float = 0.0
) -> Iterator[Tuple[str, str]]:
    """Yield ``(leaf_path, human description)`` for every difference.

    Structure-aware: dicts recurse over the key union, lists pairwise;
    numeric leaves get a relative delta, NaN==NaN counts as equal (the
    campaign reports use NaN for empty cells).  ``rtol``/``atol`` relax
    the numeric comparison (see
    :func:`repro.metrics.stats.within_tolerance`); the defaults keep the
    store CLI's exact-equality contract.  Non-numeric leaves always
    compare exactly.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in a:
                yield where, f"only in B: {b[key]!r}"
            elif key not in b:
                yield where, f"only in A: {a[key]!r}"
            else:
                yield from iter_report_diff(a[key], b[key], where, rtol, atol)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield path, f"length {len(a)} -> {len(b)}"
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            yield from iter_report_diff(
                item_a, item_b, f"{path}[{index}]", rtol, atol
            )
        return
    if _is_number(a) and _is_number(b):
        from ..metrics.stats import within_tolerance

        if within_tolerance(a, b, rtol=rtol, atol=atol):
            return
        if a and not math.isnan(a) and not math.isinf(a):
            delta = 100.0 * (b - a) / abs(a)
            yield path, f"{a:g} -> {b:g} ({delta:+.1f}%)"
        else:
            yield path, f"{a:g} -> {b:g}"
        return
    if a != b:
        yield path, f"{a!r} -> {b!r}"


def _load_side(store: Optional[RunStore], ref: str) -> Tuple[str, dict]:
    """A diff operand: a stored run id, or any JSON file on disk."""
    if os.path.isfile(ref):
        with open(ref) as handle:
            return ref, json.load(handle)
    if ref.isdigit():
        if store is None:
            raise StoreError(
                f"run id {ref} needs a store; pass --store or ${ENV_STORE_DIR}"
            )
        row, _, json_data = store.run_report(int(ref))
        if json_data is None:
            raise StoreError(
                f"run #{ref} has no JSON report artifact (or it is corrupt)"
            )
        return f"run #{ref} ({row['name']})", json_data
    raise StoreError(f"diff operand {ref!r} is neither a run id nor a file")


def _cmd_diff(args) -> int:
    store = None
    if args.a.isdigit() or args.b.isdigit():
        store = _open_store(args)
    label_a, data_a = _load_side(store, args.a)
    label_b, data_b = _load_side(store, args.b)
    if args.section is not None:
        try:
            data_a = data_a[args.section]
            data_b = data_b[args.section]
        except (KeyError, TypeError):
            raise StoreError(
                f"section {args.section!r} missing from one of the reports"
            ) from None
    print(f"A: {label_a}")
    print(f"B: {label_b}")
    differences = list(iter_report_diff(data_a, data_b))
    for where, description in differences:
        print(f"  {where}: {description}")
    if not differences:
        print("  reports are identical")
        return 0
    print(f"{len(differences)} difference(s)")
    return 1


# -- gc / export ------------------------------------------------------------------


def _cmd_gc(store: RunStore, purge_quarantine: bool) -> int:
    outcome = store.gc(purge_quarantine=purge_quarantine)
    print(
        f"gc: removed {outcome['removed']} unreferenced object(s), "
        f"purged {outcome['quarantine_purged']} quarantined"
    )
    return 0


def _cmd_export(store: RunStore, run_id: int, dest: str) -> int:
    row, report_text, json_data = store.run_report(run_id)
    os.makedirs(dest, exist_ok=True)
    meta = dict(row)
    meta["params"] = json.loads(row["params_json"])
    del meta["params_json"]
    written: List[str] = []
    with open(os.path.join(dest, "run.json"), "w") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
    written.append("run.json")
    if report_text is not None:
        with open(os.path.join(dest, "report.txt"), "w") as handle:
            handle.write(report_text)
        written.append("report.txt")
    if json_data is not None:
        with open(os.path.join(dest, "data.json"), "w") as handle:
            json.dump(json_data, handle, indent=2, default=str)
        written.append("data.json")
    print(f"exported run #{run_id} -> {dest} ({', '.join(written)})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "diff":
            return _cmd_diff(args)
        store = _open_store(args)
        if args.command == "ls":
            return _cmd_ls(store)
        if args.command == "show":
            return _cmd_show(store, args.target)
        if args.command == "gc":
            return _cmd_gc(store, args.purge_quarantine)
        return _cmd_export(store, args.run_id, args.dest)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
