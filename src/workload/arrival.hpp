/**
 * @file
 * Declarative arrival-process selection for the serving tier. An
 * ArrivalSpec names the registry process shaping request arrivals
 * ("poisson", "diurnal", "flash-crowd", "mmpp", "heavy-tail",
 * "trace", "correlated") plus that process's parameters, and
 * optionally a path to
 * record the generated stream as a replayable trace. Pure data, so
 * a serving scenario stays data, not code; the process
 * implementations live in workload/arrival_process.hpp and the
 * trace layer in workload/trace.hpp.
 */

#ifndef HYGCN_WORKLOAD_ARRIVAL_HPP
#define HYGCN_WORKLOAD_ARRIVAL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace hygcn::workload {

/**
 * Which arrival process shapes the request stream, and how. Every
 * cycle-valued parameter defaulting to 0 resolves against the
 * config's meanInterarrivalCycles at construction, so presets scale
 * with their load level instead of hard-coding horizons. Only the
 * parameters of the selected process are consulted; the rest are
 * inert, but every one is echoed into JSON.
 */
struct ArrivalSpec
{
    /** Registry key of the arrival process. The default "poisson"
     *  reproduces the legacy exponential generator byte-exactly. */
    std::string process = "poisson";

    // ---- "diurnal": sinusoid-modulated rate ---------------------
    /** Peak-to-mean rate swing in [0, 1]: the instantaneous rate is
     *  mean * (1 + amplitude * sin(2*pi*t / period)). */
    double diurnalAmplitude = 0.6;

    /** Wave period in cycles; 0 resolves to 64x the mean
     *  interarrival gap (a few dozen requests per "day"). */
    double diurnalPeriodCycles = 0.0;

    // ---- "flash-crowd": scheduled burst windows -----------------
    /** Rate multiplier at the burst plateau (>= 1; 1 disables). */
    double burstAmplitude = 6.0;

    /** Cycle the first burst window opens. */
    Cycle burstStartCycle = 0;

    /** Window length in cycles; 0 resolves to 16x the mean gap. */
    Cycle burstDurationCycles = 0;

    /** Linear ramp up/down inside the window; 0 resolves to a
     *  quarter of the (resolved) duration. */
    Cycle burstRampCycles = 0;

    /** Window repeat period; 0 means a single one-shot burst. */
    Cycle burstPeriodCycles = 0;

    // ---- "mmpp": Markov-modulated correlated bursts -------------
    /** Per-state rate multipliers the chain cycles through (all
     *  > 0); empty resolves to the two-state {0.4, 4.0} slow/burst
     *  alternation. */
    std::vector<double> mmppRateMultipliers{};

    /** Mean exponential dwell per state in cycles; 0 resolves to
     *  32x the mean gap. */
    double mmppMeanDwellCycles = 0.0;

    // ---- "heavy-tail": Pareto / lognormal interarrivals ---------
    /** Interarrival distribution: "pareto" or "lognormal". Both are
     *  scaled so the mean gap stays meanInterarrivalCycles. */
    std::string heavyTailDist = "pareto";

    /** Pareto shape (> 1 so the mean exists; smaller = heavier). */
    double paretoAlpha = 1.5;

    /** Lognormal sigma (> 0; larger = heavier tail). */
    double lognormalSigma = 1.0;

    // ---- "correlated": cross-tenant burst correlation -----------
    /** Rate multiplier while the burst state is active (>= 1). */
    double correlatedBurstMultiplier = 4.0;

    /** Mean exponential dwell per calm/burst state in cycles; 0
     *  resolves to 32x the mean gap. */
    double correlatedMeanDwellCycles = 0.0;

    /**
     * Probability in [0, 1] that an arrival inside a burst window is
     * attributed to the window's hot tenant (drawn uniformly at each
     * burst onset) instead of the configured tenant mix — the
     * cross-tenant correlation i.i.d. tenant draws cannot express.
     */
    double correlation = 0.8;

    // ---- "trace": replay a recorded stream ----------------------
    /** Trace file the "trace" process replays (workload/trace.hpp
     *  format); required for that process, inert otherwise. */
    std::string traceFile{};

    // ---- recording ----------------------------------------------
    /**
     * When non-empty, every generated request is appended to this
     * file in trace format as it is drawn, so any run — generative
     * or replayed — can be captured and replayed exactly. An I/O
     * side effect, deliberately not part of the config's JSON echo.
     * Concurrent runs (e.g. a sweep) must record to distinct paths.
     */
    std::string recordPath{};

    /** Throws std::invalid_argument on parameters no process could
     *  consume. Registry resolution of `process` happens later, at
     *  generator construction. */
    void validate() const;
};

} // namespace hygcn::workload

#endif // HYGCN_WORKLOAD_ARRIVAL_HPP
