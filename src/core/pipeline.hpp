/**
 * @file
 * Inter-engine pipeline tracker (paper section 4.5.1). The ping-pong
 * Aggregation Buffer has two chunks: while the Combination Engine
 * consumes interval i-1 from one chunk, the Aggregation Engine fills
 * the other with interval i. Aggregation of interval i therefore may
 * not start before combination of interval i-2 released its chunk.
 * Phase-by-phase (N-PP) execution does not use this tracker: runLayer
 * issues the same per-interval steps in spill/fill order instead.
 */

#ifndef HYGCN_CORE_PIPELINE_HPP
#define HYGCN_CORE_PIPELINE_HPP

#include <algorithm>

#include "sim/types.hpp"

namespace hygcn {

/** Interval-level pipeline recurrence for the two engines. */
class InterEnginePipeline
{
  public:
    explicit InterEnginePipeline(Cycle start)
        : aggPrev_(start), combPrev_(start), combPrev2_(start)
    {}

    /** Earliest start cycle for the next aggregation interval. */
    Cycle aggStart() const { return std::max(aggPrev_, combPrev2_); }

    /** Record aggregation completion of the current interval. */
    void noteAggFinish(Cycle cycle) { aggPrev_ = std::max(aggPrev_, cycle); }

    /** Earliest start for the combination of the current interval. */
    Cycle
    combStart(Cycle agg_finish) const
    {
        return std::max(agg_finish, combPrev_);
    }

    /** Record combination completion of the current interval. */
    void
    noteCombFinish(Cycle cycle)
    {
        combPrev2_ = combPrev_;
        combPrev_ = std::max(combPrev_, cycle);
    }

    /** Completion cycle of everything recorded so far. */
    Cycle finish() const { return std::max(aggPrev_, combPrev_); }

  private:
    Cycle aggPrev_;
    Cycle combPrev_;
    Cycle combPrev2_;
};

} // namespace hygcn

#endif // HYGCN_CORE_PIPELINE_HPP
