"""Possible-world machinery (Definition 2): sampling and enumeration."""

from .enumerator import (
    DEFAULT_MAX_WORLDS,
    iter_all_worlds,
    iter_subset_worlds,
)
from .possible_world import PossibleWorld
from .sampler import WorldSampler

__all__ = [
    "PossibleWorld",
    "WorldSampler",
    "iter_all_worlds",
    "iter_subset_worlds",
    "DEFAULT_MAX_WORLDS",
]
