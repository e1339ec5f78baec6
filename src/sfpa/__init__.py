"""Simultaneous first-price auction games: equilibria, welfare, dynamics."""

from .auction import (Allocation, Outcome, PriorityRule, RandomizedRule, allocate,
                      optimal_welfare, outcome)
from .closedform import (AndOrStrategyPair, AtomicCDF, SingleMindedSymmetric,
                         and_support_sum_check, andor_equilibrium_welfare,
                         andor_utility_and, andor_utility_or, singleminded_utility,
                         triangle_utility)
from .equilibrium import (BidGrid, FiniteSupportStrategy, WalrasianEquilibrium,
                          best_response_gap, limit_equilibrium_check,
                          pure_nash_search, walrasian_check, walrasian_search)
from .valuations import (AdditiveValuation, AndValuation, BetaCertificate,
                         OrValuation, SingleMindedValuation, TableValuation,
                         Valuation, XosValuation, beta_of, check_valid,
                         xos_supporting_clause)

__version__ = "0.1.0"
