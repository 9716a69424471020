/**
 * @file
 * The pluggable arrival-process abstraction behind the serving
 * request generator, replacing the hard-coded exponential sampler:
 * an ArrivalProcess turns the stream RNG into interarrival gaps (and
 * may pin per-request tenant/scenario attribution, as trace replay
 * does). Implementations here cover the generative built-ins —
 * "poisson" (legacy, byte-identical), "diurnal" (sinusoid-modulated
 * rate), "flash-crowd" (scheduled burst windows), "mmpp"
 * (Markov-modulated bursts), "heavy-tail" (Pareto/lognormal gaps),
 * "correlated" (burst windows that pin a hot tenant, correlating
 * the tenant mix in time). The "trace" replay process lives in
 * workload/trace.hpp. Custom processes register through
 * Registry::arrivalProcesses.
 */

#ifndef HYGCN_WORKLOAD_ARRIVAL_PROCESS_HPP
#define HYGCN_WORKLOAD_ARRIVAL_PROCESS_HPP

#include <cstdint>
#include <vector>

#include "serve/workload.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace hygcn::workload {

/** One sampled arrival, as the request generator consumes it. */
struct Arrival
{
    /** Cycles since the previous arrival (the stream clock advances
     *  by this much before the request is stamped). */
    Cycle gap = 0;

    /**
     * Trace replay pins the tenant and scenario recorded with the
     * arrival; generative processes leave pinned false and the
     * generator draws both from the configured tenant mix on the
     * same RNG (preserving the legacy draw order).
     */
    bool pinned = false;
    std::uint32_t tenant = 0;
    std::uint32_t scenario = 0;

    /**
     * Pins the tenant only: the generator keeps the recorded tenant
     * but still draws the scenario from that tenant's configured
     * mix. The "correlated" process uses this to attribute in-burst
     * arrivals to the burst's hot tenant. Ignored when `pinned` is
     * set (full pinning wins).
     */
    bool pinnedTenant = false;
};

/**
 * Samples the arrival stream one request at a time. Implementations
 * draw exclusively on the passed stream RNG (never their own
 * entropy), so a (config, seed) pair always reproduces the same
 * traffic; `now` is the arrival cycle of the previous request, which
 * time-varying processes use to evaluate their instantaneous rate.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Sample the gap (and optional attribution) of request
     *  @p index, the previous request having arrived at @p now. */
    virtual Arrival next(Rng &rng, Cycle now, std::uint64_t index) = 0;
};

/**
 * The legacy open-loop exponential sampler: one uniform draw per
 * arrival, gap = -ln(1-u) * mean. Byte-identical to the pre-registry
 * RequestGenerator, golden-pinned.
 */
class PoissonProcess : public ArrivalProcess
{
  public:
    explicit PoissonProcess(const serve::ServeConfig &config);
    Arrival next(Rng &rng, Cycle now, std::uint64_t index) override;

  private:
    double meanGap_;
};

/**
 * Common base of the rate-modulated processes: exponential gaps whose
 * instantaneous rate is the mean rate times a time-varying
 * multiplier, sampled with exactly one uniform draw per arrival.
 */
class RateModulatedProcess : public ArrivalProcess
{
  public:
    explicit RateModulatedProcess(const serve::ServeConfig &config);
    Arrival next(Rng &rng, Cycle now, std::uint64_t index) final;

  protected:
    /** Rate multiplier at @p now (clamped away from zero). */
    virtual double rateMultiplier(Cycle now) const = 0;

    double meanGap() const { return meanGap_; }

  private:
    double meanGap_;
};

/** Sinusoid-modulated ("diurnal wave") arrival rate. */
class DiurnalProcess : public RateModulatedProcess
{
  public:
    explicit DiurnalProcess(const serve::ServeConfig &config);

  protected:
    double rateMultiplier(Cycle now) const override;

  private:
    double amplitude_;
    double periodCycles_;
};

/**
 * Baseline rate with scheduled burst windows: inside a window the
 * rate ramps linearly up to `burstAmplitude` times the baseline,
 * holds, and ramps back down; windows repeat every
 * `burstPeriodCycles` (or fire once when 0).
 */
class FlashCrowdProcess : public RateModulatedProcess
{
  public:
    explicit FlashCrowdProcess(const serve::ServeConfig &config);

  protected:
    double rateMultiplier(Cycle now) const override;

  private:
    double amplitude_;
    Cycle start_;
    Cycle duration_;
    Cycle ramp_;
    Cycle period_;
};

/**
 * Markov-modulated Poisson process: a state chain cycled with
 * exponential dwell times, each state scaling the arrival rate by
 * its multiplier — slow/burst alternation that correlates arrivals
 * in time (and therefore across tenants) the way independent
 * exponential gaps never do.
 */
class MmppProcess : public ArrivalProcess
{
  public:
    explicit MmppProcess(const serve::ServeConfig &config);
    Arrival next(Rng &rng, Cycle now, std::uint64_t index) override;

  private:
    double meanGap_;
    double meanDwell_;
    std::vector<double> rates_;
    std::size_t state_ = 0;
    Cycle nextTransition_ = 0;
    bool primed_ = false;
};

/**
 * Heavy-tailed interarrivals: Pareto (shape `paretoAlpha`) or
 * lognormal (`lognormalSigma`) gaps, both scaled so the mean gap
 * stays the configured meanInterarrivalCycles — same average load,
 * far burstier extremes.
 */
class HeavyTailProcess : public ArrivalProcess
{
  public:
    explicit HeavyTailProcess(const serve::ServeConfig &config);
    Arrival next(Rng &rng, Cycle now, std::uint64_t index) override;

  private:
    double meanGap_;
    double alpha_;
    double sigma_;
    bool lognormal_;
};

/**
 * Cross-tenant burst correlation: a two-state calm/burst chain (like
 * a two-state MMPP) where each burst window additionally draws one
 * "hot" tenant uniformly at onset, and every in-burst arrival is
 * attributed to that tenant with probability `correlation` (the
 * tenant pin; scenario still follows the hot tenant's configured
 * mix). Models the flash-crowd reality PR 6's processes could not:
 * bursts are not tenant-i.i.d. — one tenant's audience shows up
 * together.
 */
class CorrelatedProcess : public ArrivalProcess
{
  public:
    explicit CorrelatedProcess(const serve::ServeConfig &config);
    Arrival next(Rng &rng, Cycle now, std::uint64_t index) override;

  private:
    double meanGap_;
    double meanDwell_;
    double multiplier_;
    double correlation_;
    std::uint32_t numTenants_;
    std::uint32_t hotTenant_ = 0;
    bool burst_ = false;
    Cycle nextTransition_ = 0;
    bool primed_ = false;
};

} // namespace hygcn::workload

#endif // HYGCN_WORKLOAD_ARRIVAL_PROCESS_HPP
