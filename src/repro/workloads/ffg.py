"""Synthetic football-field sensor (FFG) workload.

The paper's join experiments use the RedFIR real-time tracking data
from the Nuremberg stadium (26 GB): high-velocity sensor readings for
players and the ball. This module synthesises two joinable streams with
the same structure:

* ``positions`` — per-player position samples from body sensors;
* ``events`` — per-player event annotations (possession, kicks, speed
  bursts) from the analysis pipeline.

Both carry a ``player`` key, making the canonical experiment a windowed
equi-join of the two streams on player id. Join selectivity is governed
by the number of players and per-interval sample counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..hadoop.types import Record

__all__ = ["FFGConfig", "generate_position_records", "generate_event_records"]

_EVENTS = ("pass", "shot", "tackle", "sprint", "possession")


@dataclass(frozen=True)
class FFGConfig:
    """Shape of the synthetic sensor streams."""

    record_size: int = 80
    num_players: int = 22
    field_length: float = 105.0
    field_width: float = 68.0

    def __post_init__(self) -> None:
        if self.record_size <= 0:
            raise ValueError("record_size must be positive")
        if self.num_players < 1:
            raise ValueError("num_players must be positive")


def _count(rate: float, t_start: float, t_end: float, record_size: int) -> int:
    if t_end <= t_start:
        raise ValueError(f"empty interval [{t_start}, {t_end})")
    if rate <= 0:
        raise ValueError("rate must be positive")
    return max(1, round(rate * (t_end - t_start) / record_size))


def generate_position_records(
    t_start: float,
    t_end: float,
    rate: float,
    *,
    config: Optional[FFGConfig] = None,
    seed: int = 0,
) -> List[Record]:
    """Player position samples covering ``[t_start, t_end)``."""
    config = config if config is not None else FFGConfig()
    count = _count(rate, t_start, t_end, config.record_size)
    rng = random.Random(f"{seed}:pos:{round(t_start * 1000)}")
    duration = t_end - t_start
    step = duration / count
    records: List[Record] = []
    for i in range(count):
        ts = t_start + min(duration - 1e-6, i * step + rng.random() * step * 0.5)
        player = rng.randrange(config.num_players)
        records.append(
            Record(
                ts=ts,
                value={
                    "src": "positions",
                    "player": player,
                    "x": round(rng.random() * config.field_length, 2),
                    "y": round(rng.random() * config.field_width, 2),
                    "speed": round(rng.random() * 9.5, 2),
                },
                size=config.record_size,
            )
        )
    return records


def generate_event_records(
    t_start: float,
    t_end: float,
    rate: float,
    *,
    config: Optional[FFGConfig] = None,
    seed: int = 0,
) -> List[Record]:
    """Per-player event annotations covering ``[t_start, t_end)``."""
    config = config if config is not None else FFGConfig()
    count = _count(rate, t_start, t_end, config.record_size)
    rng = random.Random(f"{seed}:evt:{round(t_start * 1000)}")
    duration = t_end - t_start
    step = duration / count
    records: List[Record] = []
    for i in range(count):
        ts = t_start + min(duration - 1e-6, i * step + rng.random() * step * 0.5)
        records.append(
            Record(
                ts=ts,
                value={
                    "src": "events",
                    "player": rng.randrange(config.num_players),
                    "event": rng.choice(_EVENTS),
                    "intensity": round(rng.random(), 3),
                },
                size=config.record_size,
            )
        )
    return records
