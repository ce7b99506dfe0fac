#!/usr/bin/env python3
"""Validate the artifacts written by examples/observability_tour and
examples/latency_anatomy.

Used by the CI observability-tour job:

    ./build/examples/observability_tour
    python3 bench/check_observability.py

    ./build/examples/latency_anatomy 1 anatomy
    python3 bench/check_observability.py --anatomy anatomy

Default mode checks:
  * observability_trace.json is valid Chrome trace JSON; every record has
    the required fields; at least one request flow (ph s/t/f sharing an id)
    crosses >= 2 device tracks and is well-formed (one begin, one end,
    "bp":"e" on the terminator, hops monotone in time); the sampler's
    series appear as 'C' counter events with numeric args.value.
  * observability_metrics.prom parses as Prometheus text exposition: every
    sample belongs to a family with a # TYPE header, histogram buckets are
    cumulative and end at le="+Inf" with a count matching _count, and the
    expected olympian_* families are present.
  * observability_timeline.json parses, and every series has labeled
    points with strictly increasing timestamps.

--anatomy PREFIX checks <PREFIX>_blame.json (phase-sum integrity: zero
accounting-identity mismatches, internally consistent rows),
<PREFIX>_incidents.json (state-machine ordering injected <= detected <=
mitigated, recovery after detection, impact counts), and
<PREFIX>_trace.json (valid trace carrying incident-track events and 'C'
counter charts).

Exit status: 0 on pass, 1 on any failure, 2 when an artifact is missing.
"""

import json
import re
import sys

TRACE = "observability_trace.json"
PROM = "observability_metrics.prom"
TIMELINE = "observability_timeline.json"

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL  {msg}")


def ok(msg):
    print(f"  ok  {msg}")


def load(path, parser):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parser(f)
    except OSError as e:
        print(f"error: cannot read {path}: {e} — run observability_tour first",
              file=sys.stderr)
        sys.exit(2)


def check_trace():
    events = load(TRACE, json.load)
    if not isinstance(events, list) or not events:
        fail(f"{TRACE}: expected a non-empty JSON array")
        return
    for i, e in enumerate(events):
        for field in ("cat", "name", "pid", "tid", "ts", "ph"):
            if field not in e:
                fail(f"{TRACE}: event {i} missing {field!r}")
                return
    ok(f"{TRACE}: {len(events)} records, all with required fields")

    phases = {e["ph"] for e in events}
    for ph, what in (("X", "spans"), ("s", "flow begins"), ("f", "flow ends")):
        if ph not in phases:
            fail(f"{TRACE}: no {what} (ph={ph!r})")

    # Request flows: hops grouped by id must include one chain across >= 2
    # tracks, beginning once and ending once, monotone in time.
    flows = {}
    for e in events:
        if e["ph"] in ("s", "t", "f") and e["cat"] == "request":
            flows.setdefault(e["id"], []).append(e)
    if not flows:
        fail(f"{TRACE}: no request flow events")
        return
    crossing = None
    for fid, hops in flows.items():
        if len({h["tid"] for h in hops}) >= 2:
            crossing = fid
            break
    if crossing is None:
        fail(f"{TRACE}: no flow crosses device tracks")
        return
    hops = flows[crossing]
    if [h["ph"] for h in hops].count("s") != 1:
        fail(f"{TRACE}: flow {crossing} does not begin exactly once")
    if [h["ph"] for h in hops].count("f") != 1:
        fail(f"{TRACE}: flow {crossing} does not end exactly once")
    if hops[0]["ph"] != "s" or hops[-1]["ph"] != "f":
        fail(f"{TRACE}: flow {crossing} is not s .. f ordered")
    if any(b["ts"] < a["ts"] for a, b in zip(hops, hops[1:])):
        fail(f"{TRACE}: flow {crossing} hops go backward in time")
    if hops[-1].get("bp") != "e":
        fail(f"{TRACE}: flow {crossing} terminator lacks bp=e binding")
    ok(f"{TRACE}: flow {crossing} chains {len(hops)} hops across "
       f"{len({h['tid'] for h in hops})} tracks")

    check_counter_events(TRACE, events)


def check_counter_events(path, events):
    """The sampler's series must ride in the trace as 'C' counter events."""
    counters = [e for e in events if e["ph"] == "C"]
    if not counters:
        fail(f"{path}: no counter events (ph=C) — series not exported")
        return
    names = set()
    for e in counters:
        value = e.get("args", {}).get("value")
        if not isinstance(value, (int, float)):
            fail(f"{path}: counter event {e['name']!r} lacks numeric "
                 f"args.value")
            return
        names.add(e["name"])
    ok(f"{path}: {len(counters)} counter samples across {len(names)} charts")


SAMPLE_RE = re.compile(
    r'^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)'
    r'(?P<labels>\{[^}]*\})? (?P<value>[0-9eE.+-]+|\+Inf|-Inf|NaN)$')


def check_prometheus():
    def read(f):
        return f.read().splitlines()

    lines = load(PROM, read)
    types = {}
    samples = []  # (name, labels, value)
    for i, line in enumerate(lines):
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                fail(f"{PROM}:{i + 1}: bad TYPE header {line!r}")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            fail(f"{PROM}:{i + 1}: unparseable sample {line!r}")
            continue
        samples.append((m.group("name"), m.group("labels") or "",
                        float(m.group("value").replace("+Inf", "inf"))))
    if failures:
        return

    def family(name):
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)]
        return name

    for name, labels, _ in samples:
        if family(name) not in types:
            fail(f"{PROM}: sample {name}{labels} has no # TYPE header")
    ok(f"{PROM}: {len(samples)} samples across {len(types)} typed families")

    # The run must have produced the core families.
    for want in ("olympian_requests_ok_total", "olympian_request_latency_ms",
                 "olympian_gpu_utilization", "olympian_device_health",
                 "olympian_requests_failed_over_total"):
        if family(want) not in types and want not in types:
            fail(f"{PROM}: expected family {want} missing")

    # Histogram buckets: per (family, non-le labels) cumulative, ending at
    # +Inf with the _count value.
    hist = {}
    counts = {}
    for name, labels, value in samples:
        if name.endswith("_bucket"):
            base = labels[1:-1] if labels else ""
            parts = [p for p in base.split(",") if not p.startswith('le="')]
            le = [p for p in base.split(",") if p.startswith('le="')]
            key = (name[: -len("_bucket")], ",".join(parts))
            bound = le[0][4:-1] if le else ""
            hist.setdefault(key, []).append((bound, value))
        elif name.endswith("_count"):
            counts[(name[: -len("_count")], (labels or "{}")[1:-1])] = value
    for (fam, lbl), buckets in hist.items():
        values = [v for _, v in buckets]
        if values != sorted(values):
            fail(f"{PROM}: {fam}{{{lbl}}} buckets are not cumulative")
        if buckets[-1][0] != "+Inf":
            fail(f"{PROM}: {fam}{{{lbl}}} does not end at le=+Inf")
        total = counts.get((fam, lbl))
        if total is not None and buckets[-1][1] != total:
            fail(f"{PROM}: {fam}{{{lbl}}} +Inf bucket {buckets[-1][1]} "
                 f"!= _count {total}")
    if hist:
        ok(f"{PROM}: {len(hist)} histogram series with cumulative buckets")
    else:
        fail(f"{PROM}: no histogram buckets found")


def check_timeline():
    doc = load(TIMELINE, json.load)
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        fail(f"{TIMELINE}: expected a non-empty 'series' array")
        return
    for s in series:
        for field in ("name", "labels", "points"):
            if field not in s:
                fail(f"{TIMELINE}: series missing {field!r}")
                return
    with_points = [s for s in series if s["points"]]
    if not with_points:
        fail(f"{TIMELINE}: every series is empty")
        return
    for s in with_points:
        ts = [p[0] for p in s["points"]]
        if ts != sorted(ts) or len(set(ts)) != len(ts):
            fail(f"{TIMELINE}: {s['name']} timestamps not strictly increasing")
    names = {s["name"] for s in series}
    for want in ("olympian_gpu_utilization", "olympian_pool_occupancy"):
        if want not in names:
            fail(f"{TIMELINE}: expected series {want} missing")
    ok(f"{TIMELINE}: {len(series)} series, {len(with_points)} with samples")


PHASES = ("router_hop", "router_queue", "admission", "placer_decision",
          "reload", "batcher_wait", "gpu_queue", "gpu_compute", "backoff",
          "hedge_overhead", "failover_readmit", "response_hop")


def check_blame(prefix):
    path = f"{prefix}_blame.json"
    doc = load(path, json.load)
    for field in ("slo_ms", "requests", "violations", "phase_sum_mismatches",
                  "rows"):
        if field not in doc:
            fail(f"{path}: missing {field!r}")
            return
    # THE integrity gate: every request's phase charges tiled its lifetime
    # bit-exactly. A single missed charge site shows up here.
    if doc["phase_sum_mismatches"] != 0:
        fail(f"{path}: {doc['phase_sum_mismatches']} accounting-identity "
             f"mismatches (phase sum != latency)")
    if doc["requests"] <= 0:
        fail(f"{path}: no requests accounted")
    rows = doc["rows"]
    if not rows:
        fail(f"{path}: empty blame table")
        return
    req_total = viol_total = 0
    for r in rows:
        for field in ("server", "model", "requests", "violations",
                      "phases_ns", "violation_phases_ns"):
            if field not in r:
                fail(f"{path}: row missing {field!r}")
                return
        req_total += r["requests"]
        viol_total += r["violations"]
        if r["violations"] > r["requests"]:
            fail(f"{path}: server {r['server']} has more violations than "
                 f"requests")
        for phase, ns in r["phases_ns"].items():
            if phase not in PHASES:
                fail(f"{path}: unknown phase {phase!r}")
            if ns < 0:
                fail(f"{path}: negative charge for {phase!r}")
        # The violation-restricted sums are a subset of the totals.
        for phase, ns in r["violation_phases_ns"].items():
            if ns > r["phases_ns"].get(phase, 0):
                fail(f"{path}: violation_phases_ns[{phase}] exceeds "
                     f"phases_ns[{phase}]")
        if r["violations"] > 0:
            if r.get("dominant_phase") not in PHASES:
                fail(f"{path}: violating row lacks a valid dominant_phase")
            if sum(r.get("dominant_counts", {}).values()) != r["violations"]:
                fail(f"{path}: dominant_counts do not sum to violations")
    if req_total != doc["requests"]:
        fail(f"{path}: row requests {req_total} != total {doc['requests']}")
    if viol_total != doc["violations"]:
        fail(f"{path}: row violations {viol_total} != total "
             f"{doc['violations']}")
    if not failures:
        ok(f"{path}: {len(rows)} rows, {doc['requests']} requests, "
           f"{doc['violations']} violations, identity holds")


def check_incidents(prefix):
    path = f"{prefix}_incidents.json"
    doc = load(path, json.load)
    incidents = doc.get("incidents")
    if not isinstance(incidents, list) or not incidents:
        fail(f"{path}: expected a non-empty 'incidents' array")
        return
    detected = mitigated = 0
    for inc in incidents:
        for field in ("server", "kind", "injected_ns", "window_ns",
                      "detected_ns", "mitigated_ns", "recovered_ns",
                      "mitigation", "requests_impacted", "failures_impacted",
                      "goodput_dip"):
            if field not in inc:
                fail(f"{path}: incident missing {field!r}")
                return
        # State machine ordering: injected -> detected -> mitigated, and
        # recovery (when seen) comes after detection.
        if inc["detected_ns"] >= 0:
            detected += 1
            if inc["detected_ns"] < inc["injected_ns"]:
                fail(f"{path}: {inc['kind']}@{inc['server']} detected "
                     f"before injection")
            if 0 <= inc["recovered_ns"] < inc["detected_ns"]:
                fail(f"{path}: {inc['kind']}@{inc['server']} recovered "
                     f"before detection")
        if inc["mitigated_ns"] >= 0:
            mitigated += 1
            if inc["detected_ns"] < 0:
                fail(f"{path}: {inc['kind']}@{inc['server']} mitigated "
                     f"but never detected")
            elif inc["mitigated_ns"] < inc["detected_ns"]:
                fail(f"{path}: {inc['kind']}@{inc['server']} mitigated "
                     f"before detection")
            if not inc["mitigation"]:
                fail(f"{path}: mitigated incident lacks a mitigation label")
        if inc["failures_impacted"] > inc["requests_impacted"]:
            fail(f"{path}: more failures than requests attributed")
    if detected == 0:
        fail(f"{path}: no incident was ever detected")
    if mitigated == 0:
        fail(f"{path}: no incident was ever mitigated")
    if "total_requests" not in doc or doc["total_requests"] <= 0:
        fail(f"{path}: missing or zero total_requests")
    if not failures:
        ok(f"{path}: {len(incidents)} incidents "
           f"({detected} detected, {mitigated} mitigated)")


def check_anatomy_trace(prefix):
    path = f"{prefix}_trace.json"
    events = load(path, json.load)
    if not isinstance(events, list) or not events:
        fail(f"{path}: expected a non-empty JSON array")
        return
    incident_events = [e for e in events if e.get("cat") == "incident"]
    spans = [e for e in incident_events if e["ph"] == "X"]
    marks = [e for e in incident_events if e["ph"] == "i"]
    if not spans:
        fail(f"{path}: no incident spans on the incident track")
    if not marks:
        fail(f"{path}: no detection/mitigation/recovery marks")
    tracks = {e["tid"] for e in incident_events}
    if len(tracks) > 1:
        fail(f"{path}: incident events scattered across tracks {tracks}")
    if not failures:
        ok(f"{path}: {len(spans)} incident spans, {len(marks)} marks")
    check_counter_events(path, events)


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "--anatomy":
        prefix = sys.argv[2]
        check_blame(prefix)
        check_incidents(prefix)
        check_anatomy_trace(prefix)
    else:
        check_trace()
        check_prometheus()
        check_timeline()
    if failures:
        print(f"\n{len(failures)} observability check(s) failed",
              file=sys.stderr)
        return 1
    print("\nAll observability artifacts check out.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
