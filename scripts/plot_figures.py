#!/usr/bin/env python3
"""Plots the CSV blocks emitted by bench/repro.

Usage:
    ./build/bench/repro --figures=fig6 > fig6.txt
    python3 scripts/plot_figures.py fig6.txt -o plots/

Each figure prints one or more blocks of the form

    # <title>
    minute,<method>,<method>,...
    1,2.34,2.01,...

This script splits the blocks and renders one PNG per block (requires
matplotlib; falls back to printing a summary table when unavailable).

It can also render the decision-pipeline phase breakdown from one or more
observability JSON snapshots (--metrics-json of any example binary; see
EXPERIMENTS.md "Capturing a decision-pipeline trace"):

    python3 scripts/plot_figures.py --phase-metrics metrics.json -o plots/

which draws one stacked bar per snapshot splitting the mean per-decision
latency into actor forward / K-NN solve / critic scoring / deploy.
"""

import argparse
import json
import os
import sys

# (histogram name, display label) for the phase-breakdown figure, in
# pipeline order. Values are wall-clock microseconds per call.
PHASES = [
    ("phase.actor_forward_us", "actor forward"),
    ("phase.knn_solve_us", "K-NN solve"),
    ("phase.critic_score_us", "critic score"),
    ("phase.deploy_us", "deploy"),
]


def parse_blocks(path):
    """Yields (title, header, rows) for every CSV block in the file."""
    title, header, rows = None, None, []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if line.startswith("#"):
                if header and rows:
                    yield title, header, rows
                title, header, rows = line.lstrip("# ").strip(), None, []
            elif line and header is None and ("," in line):
                header = line.split(",")
            elif line and header is not None and ("," in line):
                fields = line.split(",")
                try:
                    rows.append([float(x) if x else None for x in fields])
                except ValueError:
                    # A new non-numeric header (e.g. the stabilized table).
                    if rows:
                        yield title, header, rows
                    header, rows = None, []
    if header and rows:
        yield title, header, rows


def slug(title):
    return "".join(c if c.isalnum() else "_" for c in title)[:60].strip("_")


def phase_means(path):
    """Mean per-call microseconds for every PHASES histogram in a snapshot.

    Missing histograms (phase never ran, e.g. deploy in an offline-only
    run) contribute 0 so bars from different run types stay comparable.
    """
    with open(path) as f:
        snapshot = json.load(f)
    histograms = snapshot.get("histograms", {})
    means = []
    for name, _ in PHASES:
        h = histograms.get(name, {})
        count = h.get("count", 0)
        means.append(h.get("sum", 0.0) / count if count else 0.0)
    return means


def render_phase_breakdown(paths, outdir, plt):
    labels = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    means = [phase_means(p) for p in paths]
    if plt is None:
        for label, row in zip(labels, means):
            parts = ", ".join(f"{name}={v:.1f}us"
                              for (_, name), v in zip(PHASES, row))
            print(f"{label}: {parts} (total {sum(row):.1f}us)")
        return
    fig, ax = plt.subplots(figsize=(max(4, 1.5 * len(paths) + 2), 4))
    xs = range(len(paths))
    bottom = [0.0] * len(paths)
    for p, (_, phase_label) in enumerate(PHASES):
        heights = [row[p] for row in means]
        ax.bar(xs, heights, bottom=bottom, width=0.6, label=phase_label)
        bottom = [b + h for b, h in zip(bottom, heights)]
    ax.set_xticks(list(xs))
    ax.set_xticklabels(labels, fontsize=8)
    ax.set_ylabel("mean per-decision latency (us)")
    ax.set_title("decision-pipeline phase breakdown", fontsize=9)
    ax.legend(fontsize=7)
    ax.grid(True, axis="y", alpha=0.3)
    out = os.path.join(outdir, "phase_breakdown.png")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    plt.close(fig)
    print(f"wrote {out}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs", nargs="*", help="bench output files")
    parser.add_argument("-o", "--outdir", default="plots")
    parser.add_argument("--phase-metrics", nargs="+", default=[],
                        metavar="JSON",
                        help="observability JSON snapshots (--metrics-json) "
                             "to render as a stacked phase-breakdown bar")
    args = parser.parse_args()
    if not args.inputs and not args.phase_metrics:
        parser.error("no inputs: pass bench output files, --phase-metrics, "
                     "or both")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        plt = None
        print("matplotlib unavailable; printing block summaries instead",
              file=sys.stderr)

    os.makedirs(args.outdir, exist_ok=True)
    if args.phase_metrics:
        render_phase_breakdown(args.phase_metrics, args.outdir, plt)
    for path in args.inputs:
        for title, header, rows in parse_blocks(path):
            xs = [r[0] for r in rows]
            if plt is None:
                print(f"{title}: {len(rows)} points, columns {header[1:]}")
                continue
            fig, ax = plt.subplots(figsize=(6, 4))
            for col in range(1, len(header)):
                ys = [r[col] if col < len(r) else None for r in rows]
                ax.plot(xs, ys, marker="o", markersize=2.5,
                        label=header[col])
            ax.set_xlabel(header[0])
            ax.set_ylabel("avg tuple processing time (ms)"
                          if "reward" not in title.lower()
                          else "normalized reward")
            ax.set_title(title, fontsize=9)
            ax.legend(fontsize=7)
            ax.grid(True, alpha=0.3)
            out = os.path.join(args.outdir, slug(title) + ".png")
            fig.tight_layout()
            fig.savefig(out, dpi=150)
            plt.close(fig)
            print(f"wrote {out}")


if __name__ == "__main__":
    main()
