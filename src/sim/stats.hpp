/**
 * @file
 * Every counter, gauge and energy component a simulation reports, as
 * one table, and the StatGroup and EnergyLedger that writers fill by
 * id. README.md, "Counters, gauges and energy components", gives each
 * name's unit, meaning and emitting platforms.
 */

#ifndef HYGCN_SIM_STATS_HPP
#define HYGCN_SIM_STATS_HPP

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace hygcn {

/**
 * The p-th percentile (p in [0,100]) of @p samples by linear
 * interpolation between closest ranks, the convention numpy and most
 * plotting stacks default to. Sorts its by-value argument; 0.0 for an
 * empty sample set.
 */
double percentile(std::vector<double> samples, double p);

/**
 * percentile() for samples already sorted ascending, so several
 * percentiles of one data set cost a single sort.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/**
 * Every counter (C), gauge (G) and energy component (E) as (id, name),
 * in strictly increasing name order (the compiler checks it), so table
 * order is report order. A new row needs a README glossary line
 * (test_stat_schema checks it). The per-channel HBM byte counters
 * "dram.chNN.bytes" are the one entry outside the table
 * (StatGroup::addChannelBytes).
 */
#define HYGCN_STAT_TABLE(C, G, E)                                          \
    C(AggBusyCycles, "agg.busy_cycles")                                    \
    C(AggEdges, "agg.edges")                                               \
    C(AggLoadedRows, "agg.loaded_rows")                                    \
    C(AggWindows, "agg.windows")                                           \
    E(AggEngine, "agg_engine")                                             \
    C(BufAggReadBytes, "buf.agg.read_bytes")                               \
    C(BufAggWriteBytes, "buf.agg.write_bytes")                             \
    C(BufEdgeReadBytes, "buf.edge.read_bytes")                             \
    C(BufEdgeWriteBytes, "buf.edge.write_bytes")                           \
    C(BufInputReadBytes, "buf.input.read_bytes")                           \
    C(BufInputWriteBytes, "buf.input.write_bytes")                         \
    C(BufOutputReadBytes, "buf.output.read_bytes")                         \
    C(BufOutputWriteBytes, "buf.output.write_bytes")                       \
    C(BufWeightReadBytes, "buf.weight.read_bytes")                         \
    C(BufWeightWriteBytes, "buf.weight.write_bytes")                       \
    G(CombAvgVertexLatency, "comb.avg_vertex_latency")                     \
    C(CombBusyCycles, "comb.busy_cycles")                                  \
    C(CombMacs, "comb.macs")                                               \
    C(CombVertices, "comb.vertices")                                       \
    C(CombWeightLoadCycles, "comb.weight_load_cycles")                     \
    E(CombEngine, "comb_engine")                                           \
    C(CoordBatches, "coord.batches")                                       \
    C(CoordRequests, "coord.requests")                                     \
    E(Coordinator, "coordinator")                                          \
    G(CpuAggBytesPerOp, "cpu.agg_bytes_per_op")                            \
    C(CpuAggDramBytes, "cpu.agg_dram_bytes")                               \
    G(CpuAggDramEnergyPerOpNj, "cpu.agg_dram_energy_per_op_nj")            \
    C(CpuAggInstructions, "cpu.agg_instructions")                          \
    G(CpuAggL2Mpki, "cpu.agg_l2_mpki")                                     \
    G(CpuAggL3Mpki, "cpu.agg_l3_mpki")                                     \
    E(CpuCache, "cpu.cache")                                               \
    G(CpuCombBytesPerOp, "cpu.comb_bytes_per_op")                          \
    C(CpuCombDramBytes, "cpu.comb_dram_bytes")                             \
    G(CpuCombDramEnergyPerOpNj, "cpu.comb_dram_energy_per_op_nj")          \
    C(CpuCombInstructions, "cpu.comb_instructions")                        \
    G(CpuCombL2Mpki, "cpu.comb_l2_mpki")                                   \
    G(CpuCombL3Mpki, "cpu.comb_l3_mpki")                                   \
    E(CpuCompute, "cpu.compute")                                           \
    E(CpuStatic, "cpu.static")                                             \
    G(CpuSyncRatio, "cpu.sync_ratio")                                      \
    E(Dram, "dram")                                                        \
    G(DramBandwidthUtilization, "dram.bandwidth_utilization")              \
    C(DramBusyCycles, "dram.busy_cycles")                                  \
    C(DramReadBytes, "dram.read_bytes")                                    \
    C(DramRequests, "dram.requests")                                       \
    C(DramRowHits, "dram.row_hits")                                        \
    C(DramRowMisses, "dram.row_misses")                                    \
    C(DramWriteBytes, "dram.write_bytes")                                  \
    G(GpuBandwidthUtilization, "gpu.bandwidth_utilization")                \
    E(GpuCompute, "gpu.compute")                                           \
    E(GpuDram, "gpu.dram")                                                 \
    G(GpuOom, "gpu.oom")                                                   \
    E(GpuStatic, "gpu.static")                                             \
    G(PhaseAggFraction, "phase.agg_fraction")                              \
    G(PhaseAggSeconds, "phase.agg_seconds")                                \
    G(PhaseCombSeconds, "phase.comb_seconds")                              \
    C(PlanGridRows, "plan.grid_rows")                                      \
    C(PlanLoadedRows, "plan.loaded_rows")                                  \
    G(PlanSparsityReduction, "plan.sparsity_reduction")                    \
    C(PlanWindowsTotal, "plan.windows_total")                              \
    C(ReadoutCycles, "readout.cycles")                                     \
    E(Stub, "stub")

#define HYGCN_STAT_ID(id, name) id,
#define HYGCN_STAT_NAME(id, name) name,
#define HYGCN_STAT_NONE(id, name)
#define HYGCN_STAT_C(id, name) 'C',
#define HYGCN_STAT_G(id, name) 'G',
#define HYGCN_STAT_E(id, name) 'E',

enum class Counter
{
    HYGCN_STAT_TABLE(HYGCN_STAT_ID, HYGCN_STAT_NONE, HYGCN_STAT_NONE)
};
enum class Gauge
{
    HYGCN_STAT_TABLE(HYGCN_STAT_NONE, HYGCN_STAT_ID, HYGCN_STAT_NONE)
};
enum class Energy
{
    HYGCN_STAT_TABLE(HYGCN_STAT_NONE, HYGCN_STAT_NONE, HYGCN_STAT_ID)
};

/** Every table name, all three kinds, in table order. */
inline constexpr std::string_view kStatNames[] = {
    HYGCN_STAT_TABLE(HYGCN_STAT_NAME, HYGCN_STAT_NAME, HYGCN_STAT_NAME)};
static_assert(std::ranges::adjacent_find(kStatNames,
                                         std::greater_equal<>()) ==
                  std::ranges::end(kStatNames),
              "HYGCN_STAT_TABLE rows must be in increasing name order");

/** The names of one kind's rows, indexed by id. */
template <class Id>
struct StatNames
{
    /** Each kStatNames row's kind: 'C'ounter, 'G'auge or 'E'nergy. */
    static constexpr char kKinds[] = {
        HYGCN_STAT_TABLE(HYGCN_STAT_C, HYGCN_STAT_G, HYGCN_STAT_E)};
    static constexpr char kKind = std::is_same_v<Id, Counter> ? 'C'
                                  : std::is_same_v<Id, Gauge> ? 'G'
                                                              : 'E';
    static constexpr auto all = [] {
        std::array<std::string_view, std::ranges::count(kKinds, kKind)>
            names;
        auto out = names.begin();
        for (std::size_t row = 0; row < std::size(kStatNames); ++row)
            if (kKinds[row] == kKind)
                *out++ = kStatNames[row];
        return names;
    }();
};

#undef HYGCN_STAT_ID
#undef HYGCN_STAT_NAME
#undef HYGCN_STAT_NONE
#undef HYGCN_STAT_C
#undef HYGCN_STAT_G
#undef HYGCN_STAT_E

/**
 * One value per row of one kind, plus a presence bit: a row is
 * reported once it has been written, even with 0.
 */
template <class Id, class V>
class StatSlots
{
  public:
    static constexpr std::size_t kSize = StatNames<Id>::all.size();

    /** The row named @p name, if one of this kind exists. */
    static std::optional<Id>
    find(std::string_view name)
    {
        const auto &all = StatNames<Id>::all;
        const auto it = std::ranges::find(all, name);
        if (it == all.end())
            return std::nullopt;
        return static_cast<Id>(it - all.begin());
    }

    /** The value of @p id, marked present (the write side). */
    V &
    slot(Id id)
    {
        present_[index(id)] = true;
        return values_[index(id)];
    }

    V get(Id id) const { return values_[index(id)]; }
    bool has(Id id) const { return present_[index(id)]; }

    /** Visit every present (name, value) in name order. */
    template <class F>
    void
    forEach(F &&visit) const
    {
        for (std::size_t i = 0; i < kSize; ++i)
            if (present_[i])
                visit(StatNames<Id>::all[i], values_[i]);
    }

    /** Fold every present value of @p other into this one's slot. */
    template <class F>
    void
    merge(const StatSlots &other, F &&fold)
    {
        for (std::size_t i = 0; i < kSize; ++i)
            if (other.present_[i])
                fold(slot(static_cast<Id>(i)), other.values_[i]);
    }

    /** Same rows written, with the same values. */
    bool operator==(const StatSlots &) const = default;

  private:
    static std::size_t index(Id id) { return static_cast<std::size_t>(id); }

    std::array<V, kSize> values_{};
    std::bitset<kSize> present_;
};

/**
 * The counters and gauges of one component or report. Counters
 * accumulate event counts (DRAM lines, MAC operations); gauges hold
 * derived values (utilization fractions). Writes take table ids;
 * reads by name accept table names and "dram.chNN.bytes", and throw
 * std::invalid_argument for any other name.
 */
class StatGroup
{
  public:
    /** Add @p delta to counter @p id; reported from now on, even at 0. */
    void add(Counter id, std::uint64_t delta = 1)
    { counters_.slot(id) += delta; }

    /** Set gauge @p id to @p value. */
    void set(Gauge id, double value) { gauges_.slot(id) = value; }

    /**
     * Add @p bytes to HBM channel @p channel's "dram.chNN.bytes"; a
     * channel is reported once its bytes are non-zero.
     */
    void addChannelBytes(std::uint32_t channel, std::uint64_t bytes);

    std::uint64_t get(Counter id) const { return counters_.get(id); }
    double gauge(Gauge id) const { return gauges_.get(id); }
    /** Bytes on HBM channel @p channel (0 if none). */
    std::uint64_t channelBytes(std::uint32_t channel) const;

    /** Counter @p name (0 if not written). */
    std::uint64_t get(std::string_view name) const;

    /** Gauge @p name (0.0 if not written). */
    double gauge(std::string_view name) const;

    /** True if counter or gauge @p name has been written. */
    bool has(std::string_view name) const;

    /** Add @p other's counters into this group; its gauges overwrite. */
    void merge(const StatGroup &other);

    /** Drop every counter and gauge. */
    void clear() { *this = StatGroup(); }

    /**
     * Visit every written counter as (name, value) in name order, the
     * non-zero "dram.chNN.bytes" merged in where they sort.
     */
    template <class F>
    void
    forEachCounter(F &&visit) const
    {
        const auto channels = channelEntries();
        auto next = channels.begin();
        auto channelsBefore = [&](std::string_view name) {
            for (; next != channels.end() && next->first < name; ++next)
                visit(std::string_view(next->first), next->second);
        };
        counters_.forEach([&](std::string_view name, std::uint64_t v) {
            channelsBefore(name);
            visit(name, v);
        });
        channelsBefore("~"); // sorts after every stat name
    }

    /** Visit every written gauge as (name, value) in name order. */
    template <class F>
    void forEachGauge(F &&visit) const { gauges_.forEach(visit); }

    /** Same rows written, same values, same non-zero channel bytes. */
    bool operator==(const StatGroup &other) const;

  private:
    /** Each non-zero channel's (name, bytes), sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>>
    channelEntries() const;

    StatSlots<Counter, std::uint64_t> counters_;
    StatSlots<Gauge, double> gauges_;
    std::vector<std::uint64_t> channelBytes_;
};

/** Energy per component, in picojoules. */
class EnergyLedger
{
  public:
    /** Charge @p pj picojoules to component @p id. */
    void charge(Energy id, PicoJoule pj) { components_.slot(id) += pj; }

    /** Total energy, summed over the components in name order. */
    PicoJoule total() const;

    PicoJoule component(Energy id) const { return components_.get(id); }

    /** Energy charged to component @p name (0 if none). */
    PicoJoule component(std::string_view name) const;

    /** Add every component of @p other into this ledger. */
    void merge(const EnergyLedger &other);

    /** Visit every charged component as (name, pj) in name order. */
    template <class F>
    void forEach(F &&visit) const { components_.forEach(visit); }

    /** Same components charged, with the same energy. */
    bool operator==(const EnergyLedger &) const = default;

  private:
    StatSlots<Energy, PicoJoule> components_;
};

} // namespace hygcn

#endif // HYGCN_SIM_STATS_HPP
