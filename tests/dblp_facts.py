"""Synthetic DBLP fact batches for the append tests (``test_ingest``, ``test_subscribe``)."""

from __future__ import annotations


def dblp_ingest_facts(
    batch_index: int, batch_size: int = 4, base_id: int = 900000
) -> dict[str, list]:
    """A ``/v1/append`` payload of fresh synthetic DBLP facts.

    Batches are disjoint (author ids start at ``base_id`` and advance by
    ``batch_size`` per batch), so every append adds genuinely new tuples —
    a deterministic Author row plus a probabilistic Student row per id.
    The new ids join none of the workload queries' entities, which keeps
    the read answers stable while the write path stays genuinely busy.
    """
    start = base_id + batch_index * batch_size
    return {
        "Author": [[start + i, f"Ingest Author {start + i}"] for i in range(batch_size)],
        "Student": [[[start + i, 2020], 1.5] for i in range(batch_size)],
    }
