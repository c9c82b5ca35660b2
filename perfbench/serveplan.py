"""Served join requests: a seeded request plan and an in-process replay.

A plan is a sequence of join requests over one table pair whose gold is
the diagonal (source row i matches target row i).  Every request posts a
``BATCH_ROWS``-row window of the source column with a target column.
7 requests in 8 reuse the whole target column (the hot target); 1 in 8
carries a rotation of it never sent before in the plan, so it misses any
target-index cache.  The expected response of each request is the
offline ``model.joiner().join_values`` result, computed when the plan is
made, so checking a response costs no client CPU while timing.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

BATCH_ROWS = 256
#: One request in this many carries a target column never sent before.
COLD_EVERY = 8
#: Source windows start this many rows apart.
WINDOW_STEP = 248


class Plan:
    """The request sequence, its bodies, expected responses and gold."""

    def __init__(self, sources: list[str], hot: list[str], joiner, seed: int,
                 total: int) -> None:
        rng = random.Random(seed)
        rows = len(hot)
        starts = range(0, len(sources) - BATCH_ROWS + 1, WINDOW_STEP)
        # Cold targets are distinct rotations of the hot column: the same
        # rows, so joins stay non-trivial, under a never-seen digest.
        shifts = iter(rng.sample(range(1, rows), math.ceil(total / COLD_EVERY)))
        self.rows = rows
        self.bodies: list[bytes] = []
        self.expected: list[bytes] = []
        self.cold: list[bool] = []
        self.columns: list[tuple[list[str], list[str]]] = []
        #: Per request: first source row of its window, rotation of its target.
        self.layout: list[tuple[int, int]] = []
        hot_cache: dict[int, tuple[bytes, bytes]] = {}
        for block in range(0, total, COLD_EVERY):
            cold_slot = block + rng.randrange(COLD_EVERY)
            for index in range(block, min(block + COLD_EVERY, total)):
                start = rng.choice(starts)
                source = sources[start:start + BATCH_ROWS]
                if index == cold_slot:
                    shift = next(shifts)
                    target = hot[shift:] + hot[:shift]
                    body, expected = _encode(joiner, source, target)
                else:
                    shift = 0
                    target = hot
                    if start not in hot_cache:
                        hot_cache[start] = _encode(joiner, source, target)
                    body, expected = hot_cache[start]
                self.bodies.append(body)
                self.expected.append(expected)
                self.cold.append(index == cold_slot)
                self.columns.append((source, target))
                self.layout.append((start, shift))

    def check(self, index: int, status: int, body: bytes) -> bool:
        """Whether a served response equals the offline result."""
        if status != 200:
            return False
        return response_key(json.loads(body)) == self.expected[index]

    def gold(self, index: int) -> set[tuple[int, int]]:
        """The diagonal gold of one request, in its batch's row numbers."""
        start, shift = self.layout[index]
        return {(row, (start + row - shift) % self.rows) for row in range(BATCH_ROWS)}

    def score(self, served: list[tuple[int, list]]) -> tuple[int, int, int]:
        """(correct, predicted, gold) pairs of ``(request, pairs)`` answers."""
        correct = predicted = gold_count = 0
        for index, pairs in served:
            found = {tuple(pair) for pair in pairs}
            gold = self.gold(index)
            correct += len(found & gold)
            predicted += len(found)
            gold_count += len(gold)
        return correct, predicted, gold_count


def _encode(joiner, source: list[str], target: list[str]) -> tuple[bytes, bytes]:
    result = joiner.join_values(source, target)
    expected = {"pairs": [list(pair) for pair in result.pairs],
                "matched_by": [repr(result.matched_by[pair]) for pair in result.pairs]}
    body = json.dumps({"source": source, "target": target}).encode()
    return body, json.dumps(expected).encode()


def response_key(payload: dict) -> bytes:
    """The part of a response the offline result fixes: pairs and rules."""
    return json.dumps({"pairs": payload["pairs"],
                       "matched_by": payload["matched_by"]}).encode()


def replay(plan: Plan, models: Path, model: str, count: int,
           tracer=None) -> tuple[bool, list[int]]:
    """Serve the first *count* planned requests serially, in-process.

    A fresh ``ServeEngine`` over *models* answers each request; with a
    *tracer*, each request is a ``serve.request`` span carrying its request
    id, and encoding the response a ``serve.encode`` child.  Returns
    whether every response equals the expected one, and each response's
    joined-pair count.
    """
    from repro.serve.engine import ServeEngine
    from repro.serve.registry import ModelRegistry

    engine = ServeEngine(ModelRegistry(models))
    ok = True
    joined = []
    for index in range(count):
        source, target = plan.columns[index]
        if tracer is None:
            payload = engine.join(model, source, target).to_payload()
            json.dumps(payload).encode()
        else:
            tracer.request_id = index
            with tracer.span("serve.request"):
                response = engine.join(model, source, target)
                with tracer.span("serve.encode"):
                    payload = response.to_payload()
                    json.dumps(payload).encode()
            tracer.request_id = None
        ok = ok and response_key(payload) == plan.expected[index]
        joined.append(payload["num_pairs"])
    return ok, joined
