"""Printing a ledger report, the driver's result line, and ``--compare``."""

import json


def _number(value):
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def format_report(report, benchmark):
    """Every metric by name with its unit, one workload after another."""
    lines = [f"perf ledger  seed={report['seed']}"
             f"{'  quick' if report['quick'] else ''}"
             f"{'  NOISY HOST (calibration spread > 0.15)' if report['noisy'] else ''}"]
    for name, section in report["workloads"].items():
        lines.append("")
        lines.append(f"== {name}  sim_digest={str(section['sim_digest'])[:16]}  "
                     f"sim_changed={_number(section['sim_changed'])}")
        for metric in benchmark["end_to_end"]:
            summary = section["end_to_end"][metric["name"]]
            lines.append(
                f"  {metric['name']:<14}{summary['median']:>12.4f} {metric['unit']:<6}"
                f"q1 {summary['q1']:.4f}  q3 {summary['q3']:.4f}  "
                f"min {summary['min']:.4f}  max {summary['max']:.4f}  "
                f"n {summary['n']}  ({metric['better']} is better, "
                f"bound {metric['bound']:.0%})")
        raw = section["end_to_end"]["wall_s"]
        lines.append(
            f"  {'wall_s':<14}{raw['median']:>12.4f} {'s':<6}"
            f"q1 {raw['q1']:.4f}  q3 {raw['q3']:.4f}  min {raw['min']:.4f}  "
            f"max {raw['max']:.4f}  n {raw['n']}  (raw, unbounded: the host drifts)")
        lines.append(f"  {'fail_share':<14}{section['fail_share']:>12.4f} ratio "
                     f"{section['failed']} failed of {section['attempted']} ops "
                     "(lower is better, bound 0)")
        for failure in section["failures"]:
            lines.append(f"    FAILED: {failure}")
        wall = section["per_layer"]["harness.wall_s"]
        for metric in benchmark["per_layer"]:
            value = section["per_layer"][metric["name"]]
            if metric["name"].endswith("_ns"):
                continue  # probes: printed once, below
            if value is None and not section["traced_runs"]:
                continue  # a traced metric of an untraced session
            text = f"  {metric['name']:<44}{_number(value):>14} {metric['unit']}"
            if metric["name"].endswith(".self_share") and value:
                text += f"   (estimated {value * wall:.3f} s of wall_s)"
            lines.append(text)
    if report["probes"]:
        lines.append("")
        lines.append("== layer probes (direct calls, median ns per op)")
        for name, value in report["probes"].items():
            lines.append(f"  {name:<44}{_number(value):>14} ns")
    return "\n".join(lines)


def driver_result(section, probes, benchmark, traced):
    """The last line the driver reads: correct, attempted, failed, metrics."""
    if traced:
        values = dict(section["per_layer"])
        values.update(probes or {})
        metrics = {metric["name"]: {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in benchmark["per_layer"]}
    else:
        metrics = {metric["name"]: {"value": section["end_to_end"][metric["name"]]["median"],
                                    "unit": metric["unit"]}
                   for metric in benchmark["end_to_end"]}
    return json.dumps({"correct": section["failed"] == 0,
                       "attempted": section["attempted"],
                       "failed": section["failed"], "metrics": metrics})


def verdict(before, after, bound, better):
    """``same``/``better``/``worse``/``unresolved`` for one metric of one workload.

    *after* is worse when its median is beyond *bound* (a share of
    *before*'s median) in the bad direction.  When either side's quartile
    spread is wider than the bound and the runs overlap, the comparison
    cannot tell: ``unresolved``, not ``same``.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (after["median"] - before["median"]) / before["median"]
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (before, after))
    overlap = before["min"] <= after["max"] and after["min"] <= before["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(before, after, benchmark):
    """Rows ``(workload, metric, before, after, bound, verdict)`` of two reports."""
    rows = []
    for name, section in before["workloads"].items():
        other = after["workloads"].get(name)
        if other is None:
            continue
        for metric in benchmark["end_to_end"]:
            a = section["end_to_end"][metric["name"]]
            b = other["end_to_end"][metric["name"]]
            rows.append((name, metric["name"], a, b, metric["bound"],
                         verdict(a, b, metric["bound"], metric["better"])))
        a_fail, b_fail = section["fail_share"], other["fail_share"]
        rows.append((name, "fail_share", a_fail, b_fail, 0.0,
                     "worse" if b_fail > a_fail else
                     "better" if b_fail < a_fail else "same"))
    return rows


def format_compare(rows):
    lines = [f"{'workload':<16}{'metric':<13}{'before (q1..q3)':>30}"
             f"{'after (q1..q3)':>30}{'bound':>7}  verdict"]
    for workload, metric, a, b, bound, result in rows:
        if isinstance(a, dict):
            a = f"{a['median']:.4f} ({a['q1']:.4f}..{a['q3']:.4f})"
            b = f"{b['median']:.4f} ({b['q1']:.4f}..{b['q3']:.4f})"
        else:
            a, b = f"{a:.4f}", f"{b:.4f}"
        lines.append(f"{workload:<16}{metric:<13}{a:>30}{b:>30}{bound:>7.0%}  {result}")
    return "\n".join(lines)
