"""Per-layer metrics from the span totals that ``tracer.py`` writes.

Each ``*_s`` metric is self time: the time inside a span minus the time its
child spans cover, so the layers' figures add up without counting any
interval twice. Times and counts are per query (per fe/me process, or per
line of a batch), except the ``*_frac`` and ``*_share`` ratios,
``arith.sieve_limit_max`` and the ``cli`` set-up times.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("arith", "setlang", "constructions", "embed", "largeness", "cli")
ANALYSIS = ("setlang.levels_of", "setlang.level_deltas", "setlang.empty_meet_mult",
            "setlang.period_of")
AUDITS = ("largeness._audit_thick_pcws", "largeness._audit_maxstar_max",
          "largeness._audit_nmaxstar_thick")
CHECKERS = {
    "a_thick": "a_thick_check", "a_pcws": "a_pcws_check", "m_pcws": "m_pcws_check",
    "ip_add": "ip_search[additive]", "ip_mul": "ip_search[multiplicative]",
    "ip_star": "ip_star_check", "j_add": "j_check[additive]",
    "j_mul": "j_check[multiplicative]", "max": "max_check", "nmax": "nmax_refute",
    "maxstar": "maxstar_check", "nmaxstar": "nmaxstar_check",
}
# (metric, span, "calls" or "self") read straight off the span totals
SPAN_METRICS = (
    ("arith.sieve_builds", "arith.sieve_build", "calls"),
    ("arith.sieve_build_s", "arith.sieve_build", "self"),
    ("arith.omega_calls", "arith.omega", "calls"),
    ("arith.omega_s", "arith.omega", "self"),
    ("arith.factorize_calls", "arith.factorize", "calls"),
    ("arith.factorize_s", "arith.factorize", "self"),
    ("arith.omega_upto_s", "arith.omega_upto", "self"),
    ("arith.divisors_calls", "arith.divisors", "calls"),
    ("arith.divisors_s", "arith.divisors", "self"),
    ("arith.antichain_s", "arith.extract_strong_antichain", "self"),
    ("setlang.parse_s", "setlang.parse", "self"),
    ("setlang.evaluate_s", "setlang.evaluate", "self"),
    ("setlang.contains_calls", "setlang.LazySet.contains", "calls"),
    ("setlang.contains_s", "setlang.LazySet.contains", "self"),
    ("setlang.extend_to_s", "setlang.LazySet.extend_to", "self"),
    ("constructions.build_fixture_s", "constructions.build_fixture", "self"),
    ("constructions.sequence_terms_s", "constructions.sequence_terms", "self"),
    ("constructions.pseudointersection_s", "constructions.pseudointersection", "self"),
    ("embed.fe_prefix_check_s", "embed.fe_prefix_check", "self"),
    ("embed.fe_witness_s", "embed.fe_witness", "self"),
    ("embed.fe_fip_oracle_s", "embed.fe_fip_oracle", "self"),
    ("embed.fe_refute_level_s", "embed.fe_refute_level", "self"),
    ("embed.fe_refute_residue_s", "embed.fe_refute_residue", "self"),
    ("embed.me_check_s", "embed.me_check", "self"),
    ("embed.mthick_s", "embed.mthick_check", "self"),
) + tuple((f"largeness.{short}_s", f"largeness.{fn}", "self") for short, fn in CHECKERS.items())


class Totals:
    """Span totals of one or more traced processes, merged."""

    def __init__(self, traces: list[dict]):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.none = defaultdict(int)
        self.edge_s = defaultdict(float)  # (parent, name) -> inclusive time
        self.raised = defaultdict(int)
        self.counters = defaultdict(int)
        self.sieve_limit_max = 0
        for t in traces:
            for parent, name, count, total, self_time, none in t["spans"]:
                self.calls[name] += count
                self.self_s[name] += self_time
                self.none[name] += none
                self.edge_s[(parent, name)] += total
            for name, exc, count in t["raised"]:
                self.raised[(name, exc)] += count
            for name, value in t["counters"].items():
                self.counters[name] += value
            self.sieve_limit_max = max(self.sieve_limit_max,
                                       t["counters"].get("arith.sieve_limit_max", 0))

    def layer_self(self) -> dict[str, float]:
        """Self time summed over every span of each layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traces: list[dict], queries: int, setup: dict, overhead: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    t = Totals(traces)
    q = max(queries, 1)
    out = {}
    for metric, span, kind in SPAN_METRICS:
        if kind == "calls":
            out[metric] = (t.calls[span] / q, "count")
        else:
            out[metric] = (t.self_s[span] / q, "s")
    out["arith.factorize_large_calls"] = (t.counters["arith.factorize_large_calls"] / q, "count")
    out["arith.sieve_limit_max"] = (t.sieve_limit_max, "count")
    contains = "setlang.LazySet.contains"
    out["setlang.contains_unknown_frac"] = (_ratio(t.none[contains], t.calls[contains]), "ratio")
    out["setlang.members_materialised"] = (t.counters["setlang.members_materialised"] / q, "count")
    out["setlang.analysis_s"] = (sum(t.self_s[n] for n in ANALYSIS) / q, "s")
    out["embed.contains_per_query"] = (t.counters["embed.contains"] / q, "count")
    crosscheck = sum(t.edge_s[("cli.cmd_fe", n)] for n in ("embed.fe_witness", "embed.fe_fip_oracle"))
    fe_total = sum(s for (p, n), s in t.edge_s.items() if n == "cli.cmd_fe")
    out["embed.crosscheck_share"] = (_ratio(crosscheck, fe_total), "ratio")
    level = "embed.fe_refute_level"
    out["embed.refute_level_inapplicable_frac"] = (
        _ratio(t.raised[(level, "InapplicableError")], t.calls[level]), "ratio")
    out["largeness.audits_s"] = (sum(t.self_s[n] for n in AUDITS) / q, "s")
    out["cli.interpreter_s"] = (setup["interpreter_s"], "s")
    out["cli.import_s"] = (setup["import_total_s"] - setup["interpreter_s"], "s")
    out["cli.json_s"] = ((t.self_s["cli._print_json"] + t.self_s["cli._print_jsonl"]) / q, "s")
    for layer, s in t.layer_self().items():
        out[f"{layer}.self_s"] = (s / q, "s")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out
