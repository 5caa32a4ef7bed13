"""Golden work counters: the metered work of a build and a cold pass.

The CostMeter is the deterministic clock every budget, quota and SLO
gate is priced in, so a change that only speeds a path up must leave
it untouched. These snapshots were recorded before PageRank read an
adjacency snapshot, before topology retrieval read keyword overlap
off the BM25 postings and before ``stem`` was memoised. Any later
change that alters metered work, or any answer, fails here loudly; if
the change is meant to alter work, re-record the snapshots and say
why in CHANGES.md.
"""

import hashlib

import pytest

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system

GOLDEN = {
    "ecommerce": {
        "build": {
            "chunks_read": 164,
            "edges_traversed": 86498,
            "rows_scanned": 360,
            "tagging_calls": 208,
        },
        "cold_pass": {
            "chunks_read": 164,
            "edges_traversed": 170999,
            "entailment_calls": 23,
            "generation_calls": 24,
            "nodes_scored": 1248,
            "rows_scanned": 2808,
            "tagging_calls": 240,
        },
        "answers_sha256": (
            "5c0317582160be08748bbb105e2f347d"
            "4e4a6ec46f668f7889937c0988e10cac"
        ),
        "correct": 38,
    },
    "healthcare": {
        "build": {
            "chunks_read": 124,
            "edges_traversed": 57340,
            "rows_scanned": 260,
            "tagging_calls": 128,
        },
        "cold_pass": {
            "chunks_read": 124,
            "edges_traversed": 90458,
            "entailment_calls": 21,
            "generation_calls": 22,
            "nodes_scored": 704,
            "rows_scanned": 1404,
            "tagging_calls": 156,
        },
        "answers_sha256": (
            "88e7d79028e8ecb5f3b934d86bc1526"
            "057b97b5e5228de95f18e58adca1d12b4"
        ),
        "correct": 27,
    },
}


def _fingerprint(answer):
    return repr((
        answer.text, answer.value, answer.confidence, answer.grounded,
        answer.system, answer.provenance, sorted(answer.metadata.items()),
    ))


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def measured(request):
    domain = request.param
    if domain == "ecommerce":
        lake = generate_ecommerce_lake(LakeSpec(seed=7))
    else:
        lake = generate_healthcare_lake(HealthSpec(seed=7))
    system, pipe = build_hybrid_system(lake, seed=0)
    build = system.meter.snapshot()
    digest = hashlib.sha256()
    correct = 0
    for pair in lake.qa_pairs():
        answer = pipe.answer(pair.question)
        digest.update(_fingerprint(answer).encode())
        correct += pair.is_correct(answer)
    return domain, {
        "build": build,
        "cold_pass": system.meter.snapshot(),
        "answers_sha256": digest.hexdigest(),
        "correct": correct,
    }


def test_build_work_is_golden(measured):
    domain, got = measured
    assert got["build"] == GOLDEN[domain]["build"]


def test_cold_pass_work_is_golden(measured):
    domain, got = measured
    assert got["cold_pass"] == GOLDEN[domain]["cold_pass"]


def test_cold_pass_answers_are_golden(measured):
    domain, got = measured
    assert got["answers_sha256"] == GOLDEN[domain]["answers_sha256"]
    assert got["correct"] == GOLDEN[domain]["correct"]
