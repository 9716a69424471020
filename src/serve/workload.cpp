#include "serve/workload.hpp"

#include <stdexcept>

#include "api/registry.hpp"
#include "workload/arrival_process.hpp"
#include "workload/trace.hpp"

namespace hygcn::serve {

namespace {

/** Cumulative sums of @p weights; throws unless all > 0. */
std::vector<double>
cumulate(const std::vector<double> &weights, const char *what)
{
    std::vector<double> cumulative;
    cumulative.reserve(weights.size());
    double sum = 0.0;
    for (double w : weights) {
        if (!(w > 0.0))
            throw std::invalid_argument(std::string("serve: ") + what +
                                        " weights must be positive");
        sum += w;
        cumulative.push_back(sum);
    }
    return cumulative;
}

/** arrival + slo, or "never" when the tenant carries no SLO. */
Cycle
deadlineOf(Cycle arrival, Cycle slo)
{
    return slo == 0 ? kNeverCycle : satAddCycles(arrival, slo);
}

} // namespace

std::uint32_t
ClusterSpec::totalInstances() const
{
    std::uint64_t total = 0;
    for (const InstanceClass &cls : classes)
        total += cls.count;
    if (total > ~std::uint32_t{0})
        throw std::invalid_argument("serve: cluster instance count "
                                    "overflows uint32");
    return static_cast<std::uint32_t>(total);
}

void
ServeConfig::validate() const
{
    if (scenarios.empty())
        throw std::invalid_argument("serve: config has no scenarios");
    for (const ServeScenario &s : scenarios)
        if (s.name.empty())
            throw std::invalid_argument("serve: scenario without a name");
    for (const TenantMix &t : tenants) {
        if (!(t.weight > 0.0))
            throw std::invalid_argument("serve: tenant \"" + t.name +
                                        "\" weight must be positive");
        if (!t.scenarioWeights.empty() &&
            t.scenarioWeights.size() != scenarios.size())
            throw std::invalid_argument(
                "serve: tenant \"" + t.name + "\" has " +
                std::to_string(t.scenarioWeights.size()) +
                " scenario weights for " +
                std::to_string(scenarios.size()) + " scenarios");
        for (double w : t.scenarioWeights)
            if (!(w > 0.0))
                throw std::invalid_argument(
                    "serve: tenant \"" + t.name +
                    "\" scenario weights must be positive");
        if (t.shareQuota < 0.0)
            throw std::invalid_argument("serve: tenant \"" + t.name +
                                        "\" share quota must be >= 0");
    }
    if (policy.empty())
        throw std::invalid_argument("serve: policy name is empty");
    for (const ClusterSpec::InstanceClass &cls : cluster.classes) {
        if (cls.platform.empty())
            throw std::invalid_argument(
                "serve: cluster class without a platform");
        if (cls.count == 0)
            throw std::invalid_argument(
                "serve: cluster class \"" + cls.label() +
                "\" has zero instances");
        const std::uint32_t lo = cls.minCount ? cls.minCount : cls.count;
        const std::uint32_t hi = cls.maxCount ? cls.maxCount : cls.count;
        if (lo > hi || cls.count < lo || cls.count > hi)
            throw std::invalid_argument(
                "serve: cluster class \"" + cls.label() +
                "\" needs minCount <= count <= maxCount");
    }
    if (numRequests == 0)
        throw std::invalid_argument("serve: numRequests must be >= 1");
    if (!(meanInterarrivalCycles >= 0.0))
        throw std::invalid_argument(
            "serve: meanInterarrivalCycles must be >= 0");
    if (cluster.empty() && instances == 0)
        throw std::invalid_argument("serve: instances must be >= 1");
    if (batching.maxBatch == 0)
        throw std::invalid_argument("serve: maxBatch must be >= 1");
    if (!(batching.marginalFraction >= 0.0))
        throw std::invalid_argument(
            "serve: batching.marginalFraction must be >= 0");
    if (batching.costModel.empty())
        throw std::invalid_argument("serve: costModel name is empty");
    if (routing.objective.empty())
        throw std::invalid_argument(
            "serve: routing.objective name is empty");
    if (!(routing.affinityMargin >= 0.0) ||
        !(routing.affinityMargin < 1.0))
        throw std::invalid_argument(
            "serve: routing.affinityMargin must be in [0, 1)");
    if (stats.streaming && stats.reservoirCapacity == 0)
        throw std::invalid_argument(
            "serve: stats.reservoirCapacity must be >= 1 when "
            "streaming stats are on");
    if (control.scalingPolicy.empty())
        throw std::invalid_argument(
            "serve: control.scalingPolicy name is empty");
    if (!(control.queueDepthHigh > 0.0) ||
        !(control.queueDepthLow >= 0.0) ||
        control.queueDepthLow >= control.queueDepthHigh)
        throw std::invalid_argument(
            "serve: control queue-depth watermarks need "
            "0 <= low < high");
    if (!(control.sloBurnHigh > 0.0))
        throw std::invalid_argument(
            "serve: control.sloBurnHigh must be > 0");
    if (control.scalingPolicy == "scheduled") {
        if (control.schedule.empty())
            throw std::invalid_argument(
                "serve: the \"scheduled\" scaling policy needs a "
                "non-empty control.schedule timetable");
        for (std::size_t i = 0; i < control.schedule.size(); ++i) {
            if (control.schedule[i].replicas == 0)
                throw std::invalid_argument(
                    "serve: control.schedule replica targets must be "
                    ">= 1 (scale-to-zero would strand the queue)");
            if (i > 0 && control.schedule[i].atCycle <=
                             control.schedule[i - 1].atCycle)
                throw std::invalid_argument(
                    "serve: control.schedule entries must be sorted "
                    "by strictly increasing atCycle");
        }
    }
    if (!(control.powerCapWatts >= 0.0))
        throw std::invalid_argument(
            "serve: control.powerCapWatts must be >= 0");
    if (!(control.preemptionOverheadFraction >= 0.0))
        throw std::invalid_argument(
            "serve: control.preemptionOverheadFraction must be >= 0");
    if (control.preemption && stats.streaming)
        throw std::invalid_argument(
            "serve: preemption is incompatible with streaming stats "
            "(the sink folds batches at dispatch, before a "
            "preemption could undo one)");
    if (cluster.empty()) {
        const std::uint32_t lo = control.minInstances
                                     ? control.minInstances
                                     : instances;
        const std::uint32_t hi = control.maxInstances
                                     ? control.maxInstances
                                     : instances;
        if (lo > hi || instances < lo || instances > hi)
            throw std::invalid_argument(
                "serve: control needs minInstances <= instances <= "
                "maxInstances");
    }
    arrival.validate();
}

std::vector<TenantMix>
resolvedTenants(const ServeConfig &config)
{
    if (!config.tenants.empty())
        return config.tenants;
    return {TenantMix{}};
}

RequestGenerator::RequestGenerator(const ServeConfig &config)
    : numRequests_(config.numRequests), rng_(config.seed)
{
    config.validate();

    const std::vector<TenantMix> tenants = resolvedTenants(config);

    std::vector<double> tenant_weights;
    tenant_weights.reserve(tenants.size());
    for (const TenantMix &t : tenants) {
        tenant_weights.push_back(t.weight);
        tenantSlo_.push_back(t.sloLatencyCycles);
        tenantNames_.push_back(t.name);
    }
    tenantCumulative_ = cumulate(tenant_weights, "tenant");

    const std::vector<double> uniform(config.scenarios.size(), 1.0);
    for (const TenantMix &t : tenants)
        scenarioCumulative_.push_back(cumulate(
            t.scenarioWeights.empty() ? uniform : t.scenarioWeights,
            "scenario"));
    for (const ServeScenario &s : config.scenarios)
        scenarioNames_.push_back(s.name);

    process_ = api::Registry::global().arrivalProcesses.make(
        config.arrival.process, config);
    if (!config.arrival.recordPath.empty())
        recorder_ = std::make_unique<workload::TraceWriter>(
            config.arrival.recordPath);
}

RequestGenerator::~RequestGenerator() = default;

std::uint32_t
RequestGenerator::draw(const std::vector<double> &cumulative)
{
    const double u = rng_.nextDouble() * cumulative.back();
    for (std::size_t i = 0; i + 1 < cumulative.size(); ++i)
        if (u < cumulative[i])
            return static_cast<std::uint32_t>(i);
    return static_cast<std::uint32_t>(cumulative.size() - 1);
}

ServeRequest
RequestGenerator::next()
{
    // The process samples the gap on the shared stream RNG; tenant
    // and scenario draws follow on the same RNG (the legacy order,
    // so "poisson" streams are byte-identical) unless the process
    // pins them, as trace replay does.
    const workload::Arrival arrival =
        process_->next(rng_, now_, nextId_);
    now_ = satAddCycles(now_, arrival.gap);

    ServeRequest request;
    request.id = nextId_++;
    request.arrival = now_;
    if (arrival.pinned) {
        if (arrival.tenant >= tenantCumulative_.size() ||
            arrival.scenario >= scenarioNames_.size())
            throw std::invalid_argument(
                "serve: arrival process pinned an out-of-range "
                "tenant or scenario index");
        request.tenant = arrival.tenant;
        request.scenario = arrival.scenario;
    } else if (arrival.pinnedTenant) {
        if (arrival.tenant >= tenantCumulative_.size())
            throw std::invalid_argument(
                "serve: arrival process pinned an out-of-range "
                "tenant index");
        request.tenant = arrival.tenant;
        request.scenario = draw(scenarioCumulative_[request.tenant]);
    } else {
        request.tenant = draw(tenantCumulative_);
        request.scenario = draw(scenarioCumulative_[request.tenant]);
    }
    request.deadline = deadlineOf(now_, tenantSlo_[request.tenant]);
    if (recorder_)
        recorder_->append(now_, tenantNames_[request.tenant],
                          scenarioNames_[request.scenario]);
    return request;
}

std::vector<ServeRequest>
RequestGenerator::generate()
{
    std::vector<ServeRequest> stream;
    if (nextId_ >= numRequests_)
        return stream;
    stream.reserve(numRequests_ - nextId_);
    while (nextId_ < numRequests_)
        stream.push_back(next());
    return stream;
}

} // namespace hygcn::serve
