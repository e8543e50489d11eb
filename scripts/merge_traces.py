#!/usr/bin/env python3
"""Merges a master-side and an agent-side trace into one Perfetto timeline.

Usage:
    python3 scripts/merge_traces.py client.trace.json server.trace.json \
        -o merged.trace.json
    python3 scripts/merge_traces.py client.trace.json server.trace.json --check

Both inputs are Chrome trace-event JSON files written by the processes'
tracers (--trace-out on the example binaries).  The two tracers stamp
events against their own process-local epochs, so the server track has to
be shifted onto the client timeline before the spans line up.

The shift comes from the client's "clock_offset" instant events: every
Ping RPC carries the server's receive/send stamps back to the client,
which runs the classic NTP computation and records the best (lowest-RTT)
estimate as an instant with args {"offset_us": ..., "rtt_us": ...}.
offset_us is (server epoch clock) - (client epoch clock), so server
timestamps map onto the client timeline as ts_client = ts_server -
offset_us.  Pass --offset-us to override (e.g. when replaying traces
captured without pings).

The merged file keeps the client events untouched (pids 1 wall / 2 sim)
and re-homes the server events onto pids 3 wall / 4 sim with renamed
process_name metadata, so Perfetto shows four labelled tracks on one
clock.

--check additionally joins client RPC spans against server handler spans
on (trace_id, span_id == parent_span) — the identifiers propagated in
every frame's trace envelope — and verifies that, after alignment, every matched
client span encloses its server span (client send happens-before server
receive; server reply happens-before client decode).  Exits non-zero on
any violation, making it usable as an acceptance gate.
"""

import argparse
import json
import sys

# Client tracks stay on their original pids; server tracks move here.
SERVER_PID_MAP = {1: 3, 2: 4}
SERVER_TRACK_NAMES = {3: "agent wall-clock", 4: "agent sim-time"}
CLIENT_TRACK_NAMES = {1: "master wall-clock", 2: "master sim-time"}


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    return events


def best_clock_offset(client_events):
    """Returns the lowest-RTT clock_offset estimate, or None."""
    best = None
    for ev in client_events:
        if ev.get("name") != "clock_offset" or ev.get("ph") != "i":
            continue
        args = ev.get("args") or {}
        if "offset_us" not in args:
            continue
        rtt = float(args.get("rtt_us", 0.0))
        if best is None or rtt < best[1]:
            best = (float(args["offset_us"]), rtt)
    return best


def shift_server_events(server_events, offset_us):
    out = []
    for ev in server_events:
        ev = dict(ev)
        pid = ev.get("pid", 1)
        ev["pid"] = SERVER_PID_MAP.get(pid, pid + 2)
        if ev.get("ph") == "M":
            if ev.get("name") == "process_name":
                args = dict(ev.get("args") or {})
                args["name"] = SERVER_TRACK_NAMES.get(
                    ev["pid"], args.get("name", "agent"))
                ev["args"] = args
        elif "ts" in ev and SERVER_PID_MAP.get(pid) == 3:
            # Only wall-clock stamps are on the machine clock; sim-time
            # stamps are logical and shared by construction.
            ev["ts"] = float(ev["ts"]) - offset_us
        out.append(ev)
    return out


def rename_client_tracks(client_events):
    out = []
    for ev in client_events:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            ev = dict(ev)
            args = dict(ev.get("args") or {})
            args["name"] = CLIENT_TRACK_NAMES.get(
                ev.get("pid"), args.get("name", "master"))
            ev["args"] = args
        out.append(ev)
    return out


def complete_spans(events, name_prefix):
    """Pairs B/E events per (pid, tid) stack into (start, end, args)."""
    stacks = {}
    spans = []
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(ev)
        else:
            stack = stacks.get(key)
            if not stack:
                continue
            begin = stack.pop()
            if str(begin.get("name", "")).startswith(name_prefix):
                spans.append((float(begin["ts"]), float(ev["ts"]),
                              begin.get("args") or {},
                              begin.get("name")))
    return spans


def check_enclosure(client_events, server_events_shifted):
    """Verifies every joined client RPC span encloses its server span."""
    client_spans = complete_spans(client_events, "rpc.")
    server_spans = complete_spans(server_events_shifted, "agent.")
    by_key = {}
    for start, end, args, name in server_spans:
        tid_ = args.get("trace_id")
        parent = args.get("parent_span")
        if tid_ is None or parent is None:
            continue
        by_key[(int(tid_), int(parent))] = (start, end, name)
    matched = 0
    violations = []
    for start, end, args, name in client_spans:
        tid_ = args.get("trace_id")
        sid = args.get("span_id")
        if tid_ is None or sid is None:
            continue
        server = by_key.get((int(tid_), int(sid)))
        if server is None:
            continue
        matched += 1
        s_start, s_end, s_name = server
        if not (start <= s_start and s_end <= end):
            violations.append(
                f"{name} [{start:.1f}, {end:.1f}] does not enclose "
                f"{s_name} [{s_start:.1f}, {s_end:.1f}] "
                f"(trace_id={tid_} span_id={sid})")
    return matched, violations


def main():
    parser = argparse.ArgumentParser(
        description="Merge master + agent traces onto one timeline.")
    parser.add_argument("client", help="master-side trace JSON")
    parser.add_argument("server", help="agent-side trace JSON")
    parser.add_argument("-o", "--output", default="merged.trace.json",
                        help="merged trace path (default: %(default)s)")
    parser.add_argument("--offset-us", type=float, default=None,
                        help="override the clock offset (server - client) "
                             "in microseconds")
    parser.add_argument("--check", action="store_true",
                        help="verify client spans enclose matched server "
                             "spans; exit 1 on violation")
    args = parser.parse_args()

    client_events = load_trace(args.client)
    server_events = load_trace(args.server)

    if args.offset_us is not None:
        offset_us = args.offset_us
        print(f"using explicit offset: {offset_us:.1f} us")
    else:
        best = best_clock_offset(client_events)
        if best is None:
            print("error: no clock_offset instants in the client trace; "
                  "run the master with pings enabled or pass --offset-us",
                  file=sys.stderr)
            return 2
        offset_us, rtt_us = best
        print(f"clock offset (server - client): {offset_us:.1f} us "
              f"(best RTT {rtt_us:.1f} us)")

    shifted = shift_server_events(server_events, offset_us)
    merged = rename_client_tracks(client_events) + shifted

    with open(args.output, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": merged}, f)
    print(f"wrote {args.output}: {len(merged)} events "
          f"({len(client_events)} master + {len(shifted)} agent)")

    if args.check:
        matched, violations = check_enclosure(client_events, shifted)
        if matched == 0:
            print("check: no (trace_id, span_id) joins found — were both "
                  "sides run with --trace-out?", file=sys.stderr)
            return 1
        for v in violations:
            print(f"check: VIOLATION: {v}", file=sys.stderr)
        if violations:
            print(f"check: {len(violations)}/{matched} joined spans "
                  f"violate enclosure", file=sys.stderr)
            return 1
        print(f"check: OK — {matched} client spans each enclose their "
              f"server span")
    return 0


if __name__ == "__main__":
    sys.exit(main())
