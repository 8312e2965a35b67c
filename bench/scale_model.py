"""Generated interleaving model for the scale workload: N renamed copies of
the bundled voter_full Voter, side by side and never synchronising.

Copies are named Voter0 .. Voter{N-1}; the seed only decides the order in
which they are declared, which changes state numbering but no answer.
"""

from __future__ import annotations

import re

from natstrat.casestudy import DATA_DIR

_AGENT_BLOCK = re.compile(r"^agent Voter\(lazy\) \{$.*?^\}$", re.S | re.M)


def voter_block() -> str:
    text = (DATA_DIR / "voter_full.nsm").read_text(encoding="utf-8")
    match = _AGENT_BLOCK.search(text)
    if match is None:
        raise ValueError("voter_full.nsm has no 'agent Voter(lazy)' block")
    return match.group(0)


def copies_text(order, n: int, m: int) -> str:
    """Network source with one Voter copy per entry of `order`, declared in
    that order, for serial length n and candidate count m."""
    block = voter_block()
    parts = [f"const n = {n};", f"const m = {m};"]
    parts += [block.replace("agent Voter(", f"agent Voter{k}(", 1) for k in order]
    return "\n".join(parts) + "\n"


def strategy_text(name: str, agent: str) -> str:
    """The bundled voter_full strategy `name`, retargeted at `agent`."""
    text = (DATA_DIR / "voter_full.nss").read_text(encoding="utf-8")
    head = f"strategy {name} for Voter {{"
    if head not in text:
        raise ValueError(f"voter_full.nss has no strategy {name} for Voter")
    start = text.index(head)
    end = text.index("\n}", start) + 2
    return text[start:end].replace(" for Voter {", f" for {agent} {{", 1)
