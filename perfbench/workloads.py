"""The benchmark's workloads: named mixes of ``run_scenario`` calls.

Every instance space is exhaustive, so a workload's total work is fixed
by its parameters.  The seed only shuffles the order of the scenarios
inside a workload, which moves cache warmth (canonical codes, upset
algebras, splitting formulas) and garbage-collector load from one
scenario to the next without changing the work done.  README.md says why
each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict
    instances: int  # instances_checked of a passing report, recorded


@dataclass(frozen=True)
class Workload:
    name: str
    enum_upto: int  # set-up warms enumerate_posets(0..enum_upto)
    jobs: int
    dominant: str  # the tracer's layer family expected to take most time
    scenarios: tuple

    def ordered(self, seed, reverse=False):
        """The scenarios in the order the seed picks, or its reverse."""
        order = list(self.scenarios)
        random.Random(seed).shuffle(order)
        return order[::-1] if reverse else order

    @property
    def instances(self):
        return sum(s.instances for s in self.scenarios)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", enum_upto=5, jobs=1, dominant="semantics", scenarios=(
            Scenario("sobolev-width", {"size": 5, "ns": [1, 2, 3]}, 25),
            Scenario("godel-transfer", {"size": 4, "formulas": 60}, 24),
            Scenario("jankov-oracle", {"target_size": 3, "host_size": 5}, 348),
        )),
        Workload("search", enum_upto=7, jobs=1, dominant="search", scenarios=(
            Scenario("kg-structure", {"size": 7}, 406),
            Scenario("appendix-K", {"size": 8}, 344),
            Scenario("appendix-G", {"size": 8}, 208),
            Scenario("kracht-bw2", {"size": 7}, 406),
        )),
        Workload("algebra", enum_upto=6, jobs=1, dominant="algebra", scenarios=(
            Scenario("duality-counts", {"size": 4, "dual_size": 6}, 431),
            Scenario("rn-closure", {"size": 8, "n": 2}, 106),
            Scenario("ym-rigidity", {"max_m": 4, "trunc": 8}, 20),
            Scenario("pm-constructions", {"max_n": 3, "trunc": 12}, 12),
        )),
        Workload("parallel", enum_upto=7, jobs=2, dominant="search", scenarios=(
            Scenario("kg-structure", {"size": 8}, 2451),
        )),
    )
}

SCENARIO_NAMES = sorted({s.name for w in WORKLOADS.values() for s in w.scenarios})
