"""Simultaneous first-price auction games: equilibria, welfare, dynamics."""

from .auction import Allocation, PriorityRule, RandomizedRule, optimal_welfare
from .closedform import (AndOrStrategyPair, AtomicCDF, SingleMindedSymmetric,
                         and_support_sum_check, andor_equilibrium_welfare,
                         andor_utility_and, andor_utility_or, singleminded_utility,
                         triangle_utility)
from .equilibrium import (BidGrid, WalrasianEquilibrium, best_response_gap, pure_nash_search,
                          walrasian_check, walrasian_search)
from .valuations import (AdditiveValuation, BetaCertificate, OrValuation,
                         SingleMindedValuation, TableValuation, Valuation, XosValuation,
                         beta_of, check_valid, xos_supporting_clause)

__version__ = "0.1.0"
