#!/usr/bin/env python3
"""Attacker-side experiments: run each coercer strategy against a free voter,
report what it achieves and at what complexity, then evaluate the
receipt-freeness query on two observer toys (vote public vs. vote private)."""

import sys

from natstrat.casestudy import build_coercer, receipt_freeness
from natstrat.checker import eval_formula
from natstrat.dsl import parse_guard_text, parse_network
from natstrat.outcome import outcomes
from natstrat.strategy import complexity

LEAKY = """
global int[0,2] ca_v = 0;
agent Voter { init deciding; loc end;
  edge deciding -> end on vote_1 do ca_v := 1;
  edge deciding -> end on vote_2 do ca_v := 2; }
agent Coercer { init observing; }
"""

BLIND = LEAKY.replace("global int[0,2] ca_v = 0;\nagent Voter {",
                      "agent Voter { var int[0,2] ca_v = 0;")


def main() -> int:
    for variant, sname, achieved in (
            ("punisher", "punish_disobedient", "punished_v"),
            ("infector", "infect_replace", "replaced_v && ca_v == ca"),
            ("watchdog", "infect_watch_punish", "punished_v")):
        bundle = build_coercer(variant)
        net = bundle.network
        s = bundle.strategies[sname]
        og = outcomes(net, None, {"Coercer": s})
        goal = parse_guard_text(achieved, net)
        hit = bool(og.satisfying(goal))
        print(f"{variant:9s} {sname:22s} complexity {complexity(s):2d}  "
              f"reaches [{achieved}]: {hit}  ({og.n_states} states)")

    for name, src in (("vote public (leaky)", LEAKY), ("vote private", BLIND)):
        net = parse_network(src, name="toy")
        res = eval_formula(net, receipt_freeness(4, net=net), mode="synthesize")
        print(f"receipt-freeness, {name}: {res.verdict}"
              + (f"  [violating strategy found after "
                 f"{res.stats.strategies_enumerated} candidates]"
                 if res.verdict is False else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
