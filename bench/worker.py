"""Benchmark worker: runs a batch of operations against scattree.

Started by ``run.py`` as a child process under a memory cap.  It takes
host-speed samples (``speed.py``) before and after it imports the package,
prints ``{"ready": true, "cal": ..., "spent": ...}`` with them and the time
they took, reads one JSON request
``{"ops": [...], "trace": bool, "spans_path": ...}`` from stdin and prints one JSON line per
operation: its index, the milliseconds from call to verdict, its start and
end on the monotonic clock, a status, the verdict and the host-speed
samples taken since the last line (``speed.py``; the time they took is not
in the milliseconds).  It ends with ``{"done": true, "trace": ...,
"rss_kb": ..., "cal": ...}``.
After a ``MemoryError`` it stops, because the process may be left too
full to run anything after it; the parent starts a fresh worker for the
rest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import speed  # this script's directory is on sys.path

# Start-up is scaled by samples taken in this process, around the import.
SAMPLER = speed.Sampler()
for _ in range(speed.STARTUP_SAMPLES):
    SAMPLER.sample()

import scattree  # noqa: E402,F401  (loads every module, as the CLI does)
from scattree import ends, finite_trees, ordinals, ranks, stability, terms, twins  # noqa: E402

from tracing import Tracer, peak_rss_kb  # noqa: E402

for _ in range(speed.STARTUP_SAMPLES):
    SAMPLER.sample()

HORIZON = 8  # the CLI's default --horizon
CUT_DEPTH = 6  # deepest cut the exact-cut oracle compares


def analyze_term(t):
    """What `scattree analyze` computes, reduced to its verdicts."""
    out = {}
    try:
        summary = ranks.rank_summary(t)
    except ranks.RankUndecided:
        out["rank"] = "undecided"
    else:
        out["rank"] = ordinals.format_ordinal(summary.space_rank)
        out["top_ends"] = summary.top_ends
        out["limit"] = summary.limit_flag
    if isinstance(t, terms.WSum):
        report = ends.shift_report(t, HORIZON)
        out["periods"] = list(report.periods)
        out["regular"] = report.regular
        out["almost_rigid"] = report.almost_rigid
    if out["rank"] != "undecided":
        cert = stability.classify(t, HORIZON)
        out["variant"] = cert.variant
        out["twins"] = cert.twins
        for key in ("regular", "almost_rigid"):
            if key in cert.fields:
                out[f"classify_{key}"] = cert.fields[key]
    else:
        out["twins"] = "undecided"
    return out


def run_analyze(op):
    return analyze_term(terms.parse_term(op["text"]))


def run_witness(op):
    witness = ranks.build_rank_witness(ordinals.parse_ordinal(op["alpha"]))
    return analyze_term(terms.parse_term(terms.format_term(witness)))


def run_embed(op):
    return {"embeds": terms.embeds(terms.parse_term(op["t"]), terms.parse_term(op["s"]))}


def run_twins(op):
    """What `scattree twins` computes: the cardinality, then a family from
    twin_n or from the given position sets, verified at the CLI's
    settings."""
    t = terms.resolve_name(op["term"])
    card, _reason = stability.twin_cardinality(t, HORIZON)
    out = {"cardinality": card}
    if card in ("infinite", "continuum"):
        if "sets" in op:
            family = [twins.twin_from_subset(t, a, HORIZON) for a in op["sets"]]
        else:
            family = [twins.twin_n(t, j, HORIZON) for j in range(1, op["count"] + 1)]
        check = twins.verify_twins(t, family, horizon=max(HORIZON, 12))
        codes = check["codes"]
        out["mutual"] = check["mutual"]
        out["code_unique"] = [codes.count(c) == 1 for c in codes[1:]]
        out["codes_sha256"] = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    return out


def run_lpath(op):
    p = twins.parse_lpath(op["text"])
    count, _reason = twins.lpath_twin_count(p)
    family = twins.enumerate_lpath_twins(p, op["count"]) if count != "unknown" else []
    return {"count": count, "family": len(family)}


def run_cutcheck(op):
    """The exact-cut oracle: compare the depth-d cuts of t and s for every
    d up to CUT_DEPTH.  Both terms are free of omega multiplicities, so
    each cut is exact, and a root-to-root embedding of t in s restricts to
    one of every cut (König's lemma gives the converse in the limit)."""
    t, s = terms.parse_term(op["t"]), terms.parse_term(op["s"])
    for depth in range(CUT_DEPTH + 1):
        small = terms.truncate(t, depth, 1).rooted
        large = terms.truncate(s, depth, 1).rooted
        if not finite_trees.rooted_embeds(small, large):
            return {"all_cuts_embed": False, "fails_at": depth}
    return {"all_cuts_embed": True}


RUNNERS = {
    "analyze": run_analyze,
    "witness": run_witness,
    "embed": run_embed,
    "twins": run_twins,
    "lpath": run_lpath,
    "cutcheck": run_cutcheck,
}


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    sampler = SAMPLER
    emit({"ready": True, "cal": sampler.take(), "spent": sampler.spent})
    line = sys.stdin.readline()
    if not line:  # started only to time start-up
        return
    request = json.loads(line)
    reserve = bytearray(8 << 20)  # released to report a MemoryError
    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install()
    for _ in range(speed.NEAREST):  # so that the first operations have samples beside them
        sampler.sample()
    sampler.start()
    for index, op in enumerate(request["ops"]):
        verdict, error = None, None
        span = tracer.open(0) if tracer else None
        spent = sampler.spent
        start = time.perf_counter()
        try:
            verdict = RUNNERS[op["kind"]](op)
            status = "ok"
        except terms.TermError as e:
            status, error = "term_error", str(e)
        except MemoryError:
            del reserve
            status = "memory"
        except RecursionError:
            status = "recursion"
        except Exception as e:  # any other exception is a failed operation
            status, error = "other", f"{type(e).__name__}: {e}"
        end = time.perf_counter()
        ms = (end - start - (sampler.spent - spent)) * 1000.0
        if tracer:
            tracer.close(span)
        emit(
            {"i": index, "ms": ms, "t0": start, "t1": end, "status": status, "verdict": verdict, "error": error, "cal": sampler.take()}
        )
        if status == "memory":
            break
    sampler.stop()
    trace = None
    if tracer:
        trace = tracer.summary()
        tracer.write(request["spans_path"])
    emit({"done": True, "trace": trace, "rss_kb": peak_rss_kb(), "cal": sampler.take()})


if __name__ == "__main__":
    main()
