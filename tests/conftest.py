import dataclasses

import pytest
from hypothesis import settings

from natstrat.casestudy import (
    build_coercer, build_voter, infrastructure_network,
)
from natstrat.dsl import parse_network, print_strategy
from natstrat.model import Transition, eval_guard, explore

# `pytest --hypothesis-profile=ci`: the same examples on every run, and more
# of them wherever a test leaves their number to the profile
settings.register_profile("ci", derandomize=True, max_examples=300)


@pytest.fixture(scope="session")
def base():
    return build_voter("base")


@pytest.fixture(scope="session")
def check4():
    return build_voter("check4")


@pytest.fixture(scope="session")
def full75():
    return build_voter("full", 7, 5)


@pytest.fixture(scope="session")
def full22():
    return build_voter("full", 2, 2)


@pytest.fixture(scope="session")
def punisher():
    return build_coercer("punisher")


@pytest.fixture(scope="session")
def infector():
    return build_coercer("infector")


@pytest.fixture(scope="session")
def watchdog():
    return build_coercer("watchdog")


@pytest.fixture(scope="session")
def infra_net():
    return infrastructure_network()


TOY_NET_SRC = """
global int[0,2] shared = 0;
agent T(lazy) {
  var int[0,3] x = 0;
  init l0;
  loc l1;
  loc l2;
  edge l0 -> l1 on go;
  edge l1 -> l2 on step do x := x + 1;
  edge l2 -> l0 on back when x < 3;
  edge l1 -> l1 on bump do shared := 1;
}
agent U {
  init u0;
  loc u1;
  edge u0 -> u1 on move when shared == 1;
}
"""


@pytest.fixture(scope="session")
def toy_net():
    return parse_network(TOY_NET_SRC, name="toy")


def two_state_net():
    return parse_network("agent T { init s0; loc s1; edge s0 -> s1 on a; }",
                         name="two_state")


def trap_net():
    return parse_network("""
agent T {
  init s0; loc s1; loc trap; loc win;
  edge s0 -> s1 on a;
  edge s1 -> trap on a;
  edge s1 -> win on b;
}""", name="trap")


def chain_choice_net():
    # two routes of different length to the goal plus a side trap
    return parse_network("""
agent T {
  init s0; loc mid; loc win; loc trap;
  edge s0 -> win on fast;
  edge s0 -> mid on slow;
  edge mid -> win on finishit;
  edge mid -> trap on wander;
}""", name="chain_choice")


LEAKY_SRC = """
global int[0,2] ca_v = 0;
agent Voter {
  init deciding; loc end;
  edge deciding -> end on vote_1 do ca_v := 1;
  edge deciding -> end on vote_2 do ca_v := 2;
}
agent Coercer {
  init observing;
}
"""

BLIND_SRC = """
agent Voter {
  var int[0,2] ca_v = 0;
  init deciding; loc end;
  edge deciding -> end on vote_1 do ca_v := 1;
  edge deciding -> end on vote_2 do ca_v := 2;
}
agent Coercer {
  init observing;
}
"""


@pytest.fixture(scope="session")
def leaky_net():
    return parse_network(LEAKY_SRC, name="leaky")


@pytest.fixture(scope="session")
def blind_net():
    return parse_network(BLIND_SRC, name="blind")


def count_explore(monkeypatch) -> list:
    """Record every call to `explore`, under every name natstrat imported it."""
    import sys
    import natstrat.model
    real = natstrat.model.explore
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("natstrat") and getattr(module, "explore", None) is real:
            monkeypatch.setattr(module, "explore", counting)
    return calls


def out_edges(graph, i: int) -> list:
    """The stored edges of state i, as `Transition`s in their stored order."""
    lo, hi = graph.offsets[i], graph.offsets[i + 1]
    return [Transition(i, graph.moves[m], j)
            for m, j in zip(graph.move_ids[lo:hi], graph.targets[lo:hi])]


def moves_at(net, q) -> list:
    """The moves enabled at q, as `explore` from q stores them."""
    return [t.move for t in out_edges(explore(net, start=q), 0)]


def predicates_of(goals, net) -> list:
    """Each guard goal as the predicate over GlobalState it stands for."""
    return [lambda q, g=g: eval_guard(g, q, net) for g in goals]


def result_facts(res) -> tuple:
    """What a CheckResult reports, its wall time aside: verdict, reason,
    counts, witness strategy text and witness path."""
    text = None if not res.witness_strategy else [
        print_strategy(s) for _, s in sorted(res.witness_strategy.items())]
    return (res.verdict, res.reason, dataclasses.replace(res.stats, wall_time=0.0),
            text, res.witness_path)
