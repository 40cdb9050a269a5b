#!/usr/bin/env python3
"""Validate and summarise BENCH_history.jsonl (make bench-history / CI).

Every non-empty line must be a JSON object {"date": ..., "entries": [...]}
where each result carries a name and a numeric ns_per_run. Malformed
lines are reported with their line number and fail the check — the
history is append-only and cross-commit, so one bad line poisons every
later trajectory plot.

Two append-discipline gates on top of per-line shape:
  - dates must be non-decreasing (ISO dates compare lexicographically);
    an out-of-order row means someone rewrote history or merged badly.
  - no two lines may be byte-identical; a duplicated line is a botched
    rebase or a double-run of `make bench-json`, and it silently skews
    any averaged trajectory. Several runs on the same *date* are fine.

Lines that carry the E21 "ifc summary" verifier rows get one more
shape gate: the cold and warm-1pct rows must appear together (a lone
row means the bench matrix was edited without regenerating), and the
warm reverify must be measurably cheaper than a cold rebuild — at
~1% edits the designed gap is >10x, so warm >= cold on any host is a
broken cache, not jitter. Older lines without those rows pass as-is.

One advisory (warn-only, never fails the check): a row whose
ns_per_run swings by more than 2x between consecutive lines. Rows are
the fastest of interleaved race rounds (Experiments.Measure), which
absorbs a short noisy spell but not a host that ran slower for a whole
run; on identical code such a swing is host speed, across commits it
may be a real cliff — both are worth a human look, neither should
block CI.
Lines written before the race harness hold best-of-N windows and
Bechamel OLS estimates, so a swing at that boundary is expected.
"""

import json
import sys


def main(path: str) -> int:
    bad = 0
    rows = 0
    warned = 0
    prev_date = None
    prev_date_line = 0
    prev_ns = {}
    seen_lines = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line in seen_lines:
                print(
                    f"{path}:{n}: duplicate of line {seen_lines[line]}"
                    " (identical bytes)",
                    file=sys.stderr,
                )
                bad += 1
                continue
            seen_lines[line] = n
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
                date = row["date"]
                if not isinstance(date, str):
                    raise ValueError("date must be a string")
                results = row["entries"]
                if not isinstance(results, list) or not results:
                    raise ValueError("entries must be a non-empty array")
                for r in results:
                    _name = r["name"]
                    float(r["ns_per_run"])
            except (ValueError, KeyError, TypeError) as e:
                print(f"{path}:{n}: malformed line: {e}", file=sys.stderr)
                bad += 1
                continue
            if prev_date is not None and date < prev_date:
                print(
                    f"{path}:{n}: date {date} precedes {prev_date}"
                    f" (line {prev_date_line}) — history must stay"
                    " append-only",
                    file=sys.stderr,
                )
                bad += 1
                continue
            prev_date, prev_date_line = date, n
            rows += 1
            cur_ns = {r["name"]: float(r["ns_per_run"]) for r in results}
            ifc = {k: v for k, v in cur_ns.items() if "ifc summary" in k}
            if ifc:
                cold = [v for k, v in ifc.items() if "cold" in k]
                warm = [v for k, v in ifc.items() if "warm" in k]
                if not cold or not warm:
                    print(
                        f"{path}:{n}: ifc summary rows must come in a"
                        f" cold/warm pair, got {sorted(ifc)}",
                        file=sys.stderr,
                    )
                    bad += 1
                    continue
                if min(warm) >= min(cold):
                    print(
                        f"{path}:{n}: ifc summary warm reverify"
                        f" ({min(warm):.1f} ns) not cheaper than cold"
                        f" ({min(cold):.1f} ns) — cache is not caching",
                        file=sys.stderr,
                    )
                    bad += 1
                    continue
            for name, ns in cur_ns.items():
                old = prev_ns.get(name)
                if old is None or old <= 0 or ns <= 0:
                    continue
                ratio = ns / old
                if ratio > 2.0 or ratio < 0.5:
                    print(
                        f"{path}:{n}: warning: '{name}' swung"
                        f" {old:.1f} -> {ns:.1f} ns ({ratio:.2f}x)"
                        " vs the previous line",
                        file=sys.stderr,
                    )
                    warned += 1
            prev_ns = cur_ns
            mpps = {r["name"]: r["mpps"] for r in results if "mpps" in r}
            direct = mpps.get("throughput: maglev NF, direct")
            summary = f" direct={direct:.3f} Mpps" if direct is not None else ""
            print(f"{date}: {len(results)} rows{summary}")
    if rows == 0:
        print(f"{path}: no history rows", file=sys.stderr)
        return 1
    if warned:
        print(f"{path}: {warned} row swing(s) > 2x — advisory only", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_history.jsonl"))
