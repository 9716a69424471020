/**
 * @file
 * Every figure and table of the paper's evaluation, from one process.
 * The evaluation grid is five platforms (PyG-CPU, PyG-CPU-OP,
 * PyG-GPU, PyG-GPU-OP, HyGCN) x {GCN, GSC, GIN} x the six Table 4
 * datasets, plus DiffPool on IB/CL as in the paper: 100 runs. The
 * Fig 15-18 and ablation sweeps flip one HyGCN knob at a time on
 * CR/CS/PB. Every sweep is expanded onto one parallel worker pool
 * over the shared dataset cache, so the small sweeps fill the workers
 * beside the long Reddit runs. Every run is deterministic in its
 * spec, so the tables do not depend on the worker count. Printed in
 * order:
 *
 *  Figure 2: Aggregation vs Combination time on PyG-CPU. Paper: both
 *      phases significant; Aggregation dominates for GIN and the
 *      high-degree graphs, Combination for long-feature citation
 *      graphs under combine-first models.
 *  Figure 10: (a) the interval/shard optimization on CPU (paper:
 *      ~2.3x), (b) the same on GPU (paper: slowdown, occupancy
 *      collapse), (c) HyGCN over the optimized PyG-CPU and naive
 *      PyG-GPU (paper: 1509x and 6.5x on average).
 *  Figure 11: PyG-GPU and HyGCN energy normalized to PyG-CPU. Paper:
 *      HyGCN uses 0.04% of the CPU's energy and ~10% of the GPU's.
 *  Figure 12: HyGCN on-chip energy by Aggregation Engine, Combination
 *      Engine and Coordinator. Paper: the Combination Engine
 *      dominates; the Aggregation share grows on CL and RD.
 *  Figure 13: DRAM bandwidth utilization. Paper: HyGCN reaches 16x
 *      the CPU's and 1.5x the GPU's; CL is lower on HyGCN because of
 *      its higher data reuse.
 *  Figure 14: off-chip data volume normalized to PyG-CPU. Paper:
 *      HyGCN moves 21% / 33% of the CPU's / GPU's data.
 *  Figure 15: window sliding/shrinking, Aggregation Engine only:
 *      time, DRAM access and sparsity reduction. Paper: 1.1-3x
 *      speedup from fewer redundant feature loads.
 *  Figure 16: (a,b) pipelined vs phase-by-phase time and DRAM
 *      access, paper: 27-53% less time, DRAM reduced to 50-73%;
 *      (c,d) latency- vs energy-aware pipeline, paper: Lpipe latency
 *      7-29% lower, Epipe Combination energy ~35% lower.
 *  Figure 17: priority-based off-chip access coordination (with the
 *      low-bit channel remap). Paper: 73% time saved, ~4x bandwidth
 *      utilization.
 *  Figure 18: GraphSage scalability: sampling factor 1..16 and
 *      Aggregation Buffer 2..32 MB (time, DRAM, sparsity reduction),
 *      and systolic-module granularity at a fixed PE budget (vertex
 *      latency grows, Combination Engine energy falls).
 *  Table 2: PyG-CPU characterization of GCN on COLLAB. Paper: DRAM
 *      bytes/op 11.6 vs 0.06, energy/op 170 vs 0.5 nJ, L2 MPKI 11 vs
 *      1.5, L3 MPKI 10 vs 0.9, sync ratio 36%.
 *  Table 3: the two phases' execution patterns, from the same run.
 *  Table 4: the synthesized datasets' sizes and degree shape.
 *  Table 6: the three platforms' configurations.
 *  Table 7: HyGCN's area and power per component. Paper: 6.7 W,
 *      7.8 mm^2.
 *  Ablation: mechanisms the paper only evaluates together (README.md,
 *      "Modelling substitutions"): window sliding alone vs
 *      sliding+shrinking, vertex-disperse vs vertex-concentrated SIMD
 *      scheduling, and the two Sampler modes of section 4.2.
 *
 * GPU cells that would exhaust V100 memory at full Table 4 scale are
 * marked OoM.
 *
 * With --json-dir DIR the harness also writes BENCH_fig10.json,
 * BENCH_fig11.json and BENCH_fig12.json into DIR for the CI
 * bench-regression gate. They hold only simulated numbers, so they
 * are portable across CI hosts:
 *  - fig10: the CPU-OP speedups and HyGCN's speedups;
 *  - fig11: HyGCN's energy as a percentage of CPU and GPU energy.
 *    Lower is better: growth means HyGCN got less energy-efficient
 *    relative to the baselines;
 *  - fig12: the per-component shares of on-chip energy. Shares are
 *    invariant to uniform cost retuning, so a drift means the
 *    breakdown itself moved; they sum to 100, so a shift grows at
 *    least one share.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/parallel.hpp"
#include "api/registry.hpp"
#include "baseline/cpu_model.hpp"
#include "baseline/gpu_model.hpp"
#include "bench/common.hpp"
#include "core/area_power.hpp"
#include "graph/graph_stats.hpp"
#include "graph/partition.hpp"
#include "graph/sampling.hpp"
#include "graph/window.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

/** One (model, dataset) cell of Figs 10-14, in the paper's order. */
struct Case
{
    ModelId model;
    DatasetId dataset;
    std::string label;
    bool gpuOom;
};

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (ModelId m : allModels())
        for (DatasetId ds : m == ModelId::DFP ? diffpoolDatasets()
                                              : figureDatasets())
            out.push_back({m, ds, modelAbbrev(m) + "/" + datasetAbbrev(ds),
                           gpuWouldOomFullSize(m, ds)});
    return out;
}

/** The datasets of Figs 15-18 and the ablation, as in the paper. */
const std::vector<DatasetId> kStudyDatasets = {DatasetId::CR, DatasetId::CS,
                                               DatasetId::PB};

/** Every sweep the figures read, by index into sweeps(). */
enum Sweep
{
    kGrid,
    kDiffPool,
    kFig15,
    kFig16Pipeline,
    kFig16Mode,
    kFig17,
    kFig18Sampling,
    kFig18Buffer,
    kFig18Modules,
    kAblationAggMode,
    kNumSweeps
};

std::vector<api::Session>
sweeps()
{
    const std::vector<std::string> platforms = {
        "pyg-cpu", "pyg-cpu-part", "pyg-gpu", "pyg-gpu-part", "hygcn"};
    const auto gcn = [] {
        return session().model(ModelId::GCN).datasets(kStudyDatasets);
    };
    const auto agg_only = [] {
        return session().platform("hygcn-agg").datasets(kStudyDatasets);
    };
    std::vector<api::Session> out(kNumSweeps);
    out[kGrid] = session()
                     .platforms(platforms)
                     .models({ModelId::GCN, ModelId::GSC, ModelId::GIN})
                     .datasets(figureDatasets());
    out[kDiffPool] = session()
                         .platforms(platforms)
                         .model(ModelId::DFP)
                         .datasets(diffpoolDatasets());
    out[kFig15] = agg_only().vary("sparsityElimination", {0.0, 1.0});
    out[kFig16Pipeline] = gcn().vary("interEnginePipeline", {1.0, 0.0});
    out[kFig16Mode] = gcn().vary("pipelineMode", {0.0, 1.0});
    out[kFig17] = gcn().vary("memoryCoordination", {1.0, 0.0});
    out[kFig18Sampling] =
        agg_only().vary("sampleFactor", {1.0, 2.0, 4.0, 8.0, 16.0});
    out[kFig18Buffer] = agg_only().vary(
        "aggBufBytes", {2.0 * (1 << 20), 4.0 * (1 << 20), 8.0 * (1 << 20),
                        16.0 * (1 << 20), 32.0 * (1 << 20)});
    out[kFig18Modules] =
        session()
            .model(ModelId::GSC)
            .datasets(kStudyDatasets)
            .vary("moduleBudget", {32.0, 16.0, 8.0, 4.0, 2.0, 1.0});
    out[kAblationAggMode] = gcn().vary("aggMode", {0.0, 1.0});
    return out;
}

/** One sweep's results, in its expansion order. */
using Runs = std::vector<api::RunResult>;

/**
 * Expand every sweep and run all their specs on one worker pool.
 * Returns each sweep's results, indexed like @p sweeps.
 */
std::vector<Runs>
runSweeps(const std::vector<api::Session> &sweeps)
{
    std::vector<Runs> out(sweeps.size());
    std::vector<std::pair<api::RunSpec, api::RunResult *>> jobs;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        std::vector<api::RunSpec> specs = sweeps[s].expand();
        out[s].resize(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            jobs.emplace_back(std::move(specs[i]), &out[s][i]);
    }
    // Reddit's runs are claimed first: its synthesis, then PyG-CPU
    // GIN on it, is the longest chain, and every other run fits on
    // the remaining workers beside it.
    std::stable_partition(jobs.begin(), jobs.end(), [](const auto &job) {
        return job.first.dataset == DatasetId::RD;
    });
    api::parallelFor(jobs.size(), 0, [&](std::size_t i) {
        const auto &[spec, result] = jobs[i];
        *result =
            api::Registry::global().platforms.make(spec.platform)->run(spec);
    });
    return out;
}

/** @p runs of a study sweep split into one group per dataset. */
std::span<const api::RunResult>
perDataset(const Runs &runs, std::size_t dataset)
{
    const std::size_t n = runs.size() / kStudyDatasets.size();
    return std::span(runs).subspan(dataset * n, n);
}

/** The grid's runs, by (platform, model, dataset). */
class Grid
{
  public:
    explicit Grid(const std::vector<Runs> &runs)
    {
        for (Sweep sweep : {kGrid, kDiffPool})
            for (const api::RunResult &r : runs[sweep])
                reports_.emplace(std::tuple(r.spec.platform, r.spec.model,
                                            r.spec.dataset),
                                 &r.report);
    }

    const SimReport &
    operator()(const std::string &platform, ModelId m, DatasetId ds) const
    {
        return *reports_.at({platform, m, ds});
    }

    const SimReport &
    operator()(const std::string &platform, const Case &c) const
    {
        return (*this)(platform, c.model, c.dataset);
    }

  private:
    std::map<std::tuple<std::string, ModelId, DatasetId>, const SimReport *>
        reports_;
};

/** Open a `{"case":LABEL` object in a comma-separated JSON array. */
void
openCase(std::string &array, const std::string &label)
{
    if (!array.empty())
        array += ",";
    array += "{\"case\":\"" + label + "\"";
}

void
figure02(const Grid &grid)
{
    banner("Figure 2", "Aggregation vs Combination execution time on "
                       "PyG-CPU (%)");
    header("model/dataset", {"Agg %", "Comb %"});
    for (const Case &c : cases()) {
        // Fig 2 covers the first five datasets and no DiffPool.
        if (c.model == ModelId::DFP || c.dataset == DatasetId::RD)
            continue;
        const double agg =
            grid("pyg-cpu", c).stats.gauge("phase.agg_fraction");
        row(c.label, {agg * 100.0, (1.0 - agg) * 100.0});
    }
}

std::string
figure10(const Grid &grid)
{
    banner("Figure 10", "algorithm optimization & HyGCN speedup");
    const std::vector<Case> all = cases();

    std::printf("\n(a) PyG-CPU-OP speedup over PyG-CPU\n");
    header("model/dataset", {"speedup"});
    std::string cpu_opt;
    double sum_a = 0.0;
    for (const Case &c : all) {
        const double s = grid("pyg-cpu", c).seconds() /
                         grid("pyg-cpu-part", c).seconds();
        row(c.label, {s});
        openCase(cpu_opt, c.label);
        cpu_opt += ",\"speedup\":" + jsonNumber(s) + "}";
        sum_a += s;
    }
    std::printf("average: %.2fx (paper: 2.3x)\n", sum_a / all.size());

    std::printf("\n(b) PyG-GPU-OP speedup over PyG-GPU "
                "(<1 = slowdown, as in the paper)\n");
    header("model/dataset", {"speedup"});
    for (const Case &c : all) {
        if (c.gpuOom) {
            std::printf("%-22s%10s\n", c.label.c_str(), "OoM");
            continue;
        }
        row(c.label, {grid("pyg-gpu", c).seconds() /
                      grid("pyg-gpu-part", c).seconds()});
    }

    std::printf("\n(c) HyGCN speedup over PyG-CPU (optimized) and "
                "PyG-GPU\n");
    header("model/dataset", {"vs CPU", "vs GPU"});
    std::string hygcn;
    double sum_cpu = 0.0, sum_gpu = 0.0;
    int n_gpu = 0;
    for (const Case &c : all) {
        const double h = grid("hygcn", c).seconds();
        const double s_cpu = grid("pyg-cpu-part", c).seconds() / h;
        sum_cpu += s_cpu;
        openCase(hygcn, c.label);
        hygcn += ",\"vs_cpu\":" + jsonNumber(s_cpu);
        // OoM cells carry no GPU number, matching the table.
        if (c.gpuOom) {
            std::printf("%-22s%10.1f%10s\n", c.label.c_str(), s_cpu,
                        "OoM");
        } else {
            const double s_gpu = grid("pyg-gpu", c).seconds() / h;
            sum_gpu += s_gpu;
            ++n_gpu;
            row(c.label, {s_cpu, s_gpu}, "%10.1f");
            hygcn += ",\"vs_gpu\":" + jsonNumber(s_gpu);
        }
        hygcn += "}";
    }
    std::printf("average: %.0fx vs CPU (paper 1509x), %.1fx vs GPU "
                "(paper 6.5x)\n",
                sum_cpu / all.size(), sum_gpu / n_gpu);
    return "{\"bench\":\"fig10_speedup\",\"cpu_opt\":[" + cpu_opt +
           "],\"hygcn\":[" + hygcn + "]}";
}

std::string
figure11(const Grid &grid)
{
    banner("Figure 11", "normalized energy over PyG-CPU (%)");
    header("model/dataset", {"GPU %", "HyGCN %"});
    const std::vector<Case> all = cases();
    std::string points;
    double sum_h = 0.0, sum_hg = 0.0;
    int ng = 0;
    for (const Case &c : all) {
        const double cpu = grid("pyg-cpu-part", c).joules();
        const double h = grid("hygcn", c).joules();
        const double vs_cpu = h / cpu * 100.0;
        sum_h += vs_cpu;
        openCase(points, c.label);
        points += ",\"vs_cpu_pct\":" + jsonNumber(vs_cpu);
        // OoM cells carry no GPU number, matching the table.
        if (c.gpuOom) {
            std::printf("%-22s%10s%10.4f\n", c.label.c_str(), "OoM",
                        vs_cpu);
        } else {
            const double gpu = grid("pyg-gpu", c).joules();
            const double vs_gpu = h / gpu * 100.0;
            sum_hg += vs_gpu;
            ++ng;
            row(c.label, {gpu / cpu * 100.0, vs_cpu}, "%10.4f");
            points += ",\"vs_gpu_pct\":" + jsonNumber(vs_gpu);
        }
        points += "}";
    }
    std::printf("HyGCN average: %.4f%% of CPU (paper 0.04%%), %.1f%% of "
                "GPU (paper ~10%%)\n",
                sum_h / all.size(), sum_hg / ng);
    return "{\"bench\":\"fig11_energy\",\"hygcn\":[" + points + "]}";
}

std::string
figure12(const Grid &grid)
{
    banner("Figure 12", "HyGCN energy breakdown (%, on-chip)");
    header("model/dataset", {"AggE %", "CombE %", "Coord %"});
    std::string points;
    for (const Case &c : cases()) {
        const EnergyLedger &e = grid("hygcn", c).energy;
        const double agg = e.component("agg_engine");
        const double comb = e.component("comb_engine");
        const double coord = e.component("coordinator");
        const double total = agg + comb + coord;
        const double agg_pct = agg / total * 100.0;
        const double comb_pct = comb / total * 100.0;
        const double coord_pct = coord / total * 100.0;
        row(c.label, {agg_pct, comb_pct, coord_pct});
        openCase(points, c.label);
        points += ",\"agg_pct\":" + jsonNumber(agg_pct) +
                  ",\"comb_pct\":" + jsonNumber(comb_pct) +
                  ",\"coord_pct\":" + jsonNumber(coord_pct) + "}";
    }
    return "{\"bench\":\"fig12_energy_breakdown\",\"hygcn\":[" + points + "]}";
}

void
figure13(const Grid &grid)
{
    banner("Figure 13", "DRAM bandwidth utilization (%)");
    const CpuConfig cpu_cfg;
    header("model/dataset", {"CPU %", "GPU %", "HyGCN %"});
    const std::vector<Case> all = cases();
    double rc = 0.0, rg = 0.0;
    int ng = 0;
    for (const Case &c : all) {
        const SimReport &cpu = grid("pyg-cpu-part", c);
        const SimReport &h = grid("hygcn", c);
        const double uc =
            cpu.bandwidthUtilization(cpu_cfg.ddrBytesPerSec) * 100.0;
        const double uh = h.stats.gauge("dram.bandwidth_utilization") * 100.0;
        rc += uh / std::max(uc, 1e-9);
        if (c.gpuOom) {
            std::printf("%-22s%10.2f%10s%10.2f\n", c.label.c_str(), uc,
                        "OoM", uh);
            continue;
        }
        const SimReport &gpu = grid("pyg-gpu", c);
        const double ug = gpu.stats.gauge("gpu.bandwidth_utilization") * 100.0;
        rg += uh / std::max(ug, 1e-9);
        ++ng;
        row(c.label, {uc, ug, uh});
    }
    std::printf("HyGCN utilization vs CPU: %.1fx (paper 16x); vs GPU: "
                "%.1fx (paper 1.5x)\n",
                rc / all.size(), rg / ng);
}

void
figure14(const Grid &grid)
{
    banner("Figure 14", "normalized DRAM access volume (%)");
    header("model/dataset", {"GPU %", "HyGCN %"});
    const std::vector<Case> all = cases();
    double sum_c = 0.0, sum_g = 0.0;
    int ng = 0;
    for (const Case &c : all) {
        const auto cpu =
            static_cast<double>(grid("pyg-cpu-part", c).dramBytes());
        const auto h = static_cast<double>(grid("hygcn", c).dramBytes());
        sum_c += h / cpu * 100.0;
        if (c.gpuOom) {
            std::printf("%-22s%10s%10.1f\n", c.label.c_str(), "OoM",
                        h / cpu * 100.0);
            continue;
        }
        const auto gpu = static_cast<double>(grid("pyg-gpu", c).dramBytes());
        sum_g += h / gpu * 100.0;
        ++ng;
        row(c.label, {gpu / cpu * 100.0, h / cpu * 100.0}, "%10.1f");
    }
    std::printf("HyGCN average: %.0f%% of CPU (paper 21%%), %.0f%% of "
                "GPU (paper 33%%)\n",
                sum_c / all.size(), sum_g / ng);
}

void
figure15(const Runs &runs)
{
    banner("Figure 15",
           "sparsity elimination (Aggregation Engine only, GCN layer 1)");
    header("dataset", {"time %", "DRAM %", "spars red %", "speedup"});
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto pair = perDataset(runs, i);
        const SimReport &off = pair[0].report;
        const SimReport &on = pair[1].report;
        row(datasetAbbrev(kStudyDatasets[i]),
            {on.seconds() / off.seconds() * 100.0,
             static_cast<double>(on.dramBytes()) /
                 static_cast<double>(off.dramBytes()) * 100.0,
             on.stats.gauge("agg.sparsity_reduction") * 100.0,
             off.seconds() / on.seconds()});
    }
    std::printf("paper: 1.1-3x speedup; normalized time/DRAM < 100%%\n");
}

void
figure16(const Runs &pipeline, const Runs &mode)
{
    banner("Figure 16", "inter-engine pipeline (GCN on CR/CS/PB)");

    std::printf("\n(a,b) pipelined (PP) vs phase-by-phase (N-PP)\n");
    header("dataset", {"time %", "DRAM %"});
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto pair = perDataset(pipeline, i);
        const SimReport &rp = pair[0].report;
        const SimReport &rn = pair[1].report;
        row(datasetAbbrev(kStudyDatasets[i]),
            {rp.seconds() / rn.seconds() * 100.0,
             static_cast<double>(rp.dramBytes()) /
                 static_cast<double>(rn.dramBytes()) * 100.0});
    }
    std::printf("paper: time cut by 27-53%%; DRAM reduced to 50-73%%\n");

    std::printf("\n(c,d) latency-aware vs energy-aware pipeline\n");
    header("dataset", {"Lpipe lat%", "Epipe en%"});
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto pair = perDataset(mode, i);
        const api::RunResult &rl = pair[0];
        const api::RunResult &re = pair[1];
        const double lat_ratio =
            rl.avgVertexLatency / re.avgVertexLatency * 100.0;
        const double energy_ratio =
            re.report.energy.component("comb_engine") /
            rl.report.energy.component("comb_engine") * 100.0;
        row(datasetAbbrev(kStudyDatasets[i]), {lat_ratio, energy_ratio});
    }
    std::printf("paper: Lpipe latency 71-93%% of Epipe; Epipe "
                "Combination energy ~65%% of Lpipe\n");
}

void
figure17(const Runs &runs)
{
    banner("Figure 17", "memory access coordination (GCN on CR/CS/PB)");
    header("dataset", {"time %", "BW boost x"});
    double tsum = 0.0, bsum = 0.0;
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto pair = perDataset(runs, i);
        const SimReport &r_on = pair[0].report;
        const SimReport &r_off = pair[1].report;
        const double t = r_on.seconds() / r_off.seconds() * 100.0;
        const double b = r_on.stats.gauge("dram.bandwidth_utilization") /
                         r_off.stats.gauge("dram.bandwidth_utilization");
        row(datasetAbbrev(kStudyDatasets[i]), {t, b});
        tsum += t;
        bsum += b;
    }
    std::printf("average: time %.0f%% of uncoordinated (paper 27%%), "
                "bandwidth %.1fx (paper 4x)\n",
                tsum / kStudyDatasets.size(), bsum / kStudyDatasets.size());
}

/** Time, DRAM and sparsity reduction of each run, normalized to the
 *  first run of its dataset, labelled "DS/<label(run)>". */
template <typename Label>
void
aggSweepRows(const Runs &runs, Label label)
{
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto group = perDataset(runs, i);
        const SimReport &base = group[0].report;
        for (const api::RunResult &r : group) {
            row(datasetAbbrev(kStudyDatasets[i]) + "/" + label(r),
                {r.report.seconds() / base.seconds() * 100.0,
                 static_cast<double>(r.report.dramBytes()) /
                     static_cast<double>(base.dramBytes()) * 100.0,
                 r.report.stats.gauge("agg.sparsity_reduction") * 100.0});
        }
    }
}

void
figure18(const std::vector<Runs> &runs)
{
    banner("Figure 18", "scalability exploration (GSC on CR/CS/PB)");

    std::printf("\n(a-c) sampling factor sweep (values normalized to "
                "factor 1)\n");
    header("dataset/factor", {"time %", "DRAM %", "spars red %"});
    aggSweepRows(runs[kFig18Sampling], [](const api::RunResult &r) {
        return std::to_string(r.spec.sampleFactor);
    });

    std::printf("\n(d-f) Aggregation Buffer sweep (normalized to 2 MB)\n");
    header("dataset/MB", {"time %", "DRAM %", "spars red %"});
    aggSweepRows(runs[kFig18Buffer], [](const api::RunResult &r) {
        return std::to_string(r.spec.hygcn.aggBufBytes >> 20);
    });

    std::printf("\n(g) systolic module granularity (32 basic 1x128 "
                "arrays total; normalized to 32 modules)\n");
    header("dataset/modules", {"latency %", "CombE en %"});
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto group = perDataset(runs[kFig18Modules], i);
        const double base_lat = group[0].avgVertexLatency;
        const double base_energy =
            group[0].report.energy.component("comb_engine");
        for (const api::RunResult &r : group) {
            row(datasetAbbrev(kStudyDatasets[i]) + "/" +
                    std::to_string(r.spec.hygcn.systolicModules),
                {r.avgVertexLatency / base_lat * 100.0,
                 r.report.energy.component("comb_engine") / base_energy *
                     100.0});
        }
    }
    std::printf("paper trend: coarser modules -> higher vertex latency, "
                "lower energy\n");
}

void
table02(const SimReport &r)
{
    banner("Table 2", "CPU characterization of GCN on COLLAB (CL)");
    header("metric", {"Agg", "Comb"});
    row("DRAM bytes per op", {r.stats.gauge("cpu.agg_bytes_per_op"),
                              r.stats.gauge("cpu.comb_bytes_per_op")},
        "%10.3f");
    row("DRAM energy/op (nJ)",
        {r.stats.gauge("cpu.agg_dram_energy_per_op_nj"),
         r.stats.gauge("cpu.comb_dram_energy_per_op_nj")},
        "%10.3f");
    row("L2 cache MPKI", {r.stats.gauge("cpu.agg_l2_mpki"),
                          r.stats.gauge("cpu.comb_l2_mpki")});
    row("L3 cache MPKI", {r.stats.gauge("cpu.agg_l3_mpki"),
                          r.stats.gauge("cpu.comb_l3_mpki")});
    std::printf("%-22s%10s%9.0f%%\n", "Sync time ratio", "-",
                r.stats.gauge("cpu.sync_ratio") * 100.0);
    std::printf("\npaper: 11.6 / 0.06 B/op; 170 / 0.5 nJ/op; "
                "L2 MPKI 11 / 1.5; L3 MPKI 10 / 0.9; sync 36%%\n");
}

/**
 * Table 3 derives each phase's pattern from measured properties
 * rather than restating it: data reuse from DRAM bytes per op, and
 * the phase's seconds on CL.
 */
void
table03(const SimReport &cpu)
{
    banner("Table 3", "Hybrid execution patterns (measured on GCN/CL)");
    const double agg_bpo = cpu.stats.gauge("cpu.agg_bytes_per_op");
    const double comb_bpo = cpu.stats.gauge("cpu.comb_bytes_per_op");
    const double agg_s = cpu.stats.gauge("phase.agg_seconds");
    const double comb_s = cpu.stats.gauge("phase.comb_seconds");

    std::printf("%-24s%-28s%-28s\n", "", "Aggregation", "Combination");
    std::printf("%-24s%-28s%-28s\n", "Access pattern",
                "Indirect & Irregular", "Direct & Regular");
    std::printf("%-24s%-28s%-28s\n", "Data reusability",
                agg_bpo > 1.0 ? "Low (measured)" : "High",
                comb_bpo < 1.0 ? "High (measured)" : "Low");
    std::printf("%-24s%-28s%-28s\n", "Computation pattern",
                "Dynamic & Irregular", "Static & Regular");
    std::printf("%-24s%-28.3f%-28.3f\n", "DRAM bytes per op", agg_bpo,
                comb_bpo);
    std::printf("%-24s%-28s%-28s\n", "Execution bound", "Memory", "Compute");
    std::printf("%-24s%-28.3f%-28.3f\n", "Phase seconds (CL)", agg_s,
                comb_s);
}

/** Table 4 plus each dataset's degree shape, which justifies its
 *  generator (heavy-tailed for COLLAB/Reddit, flatter otherwise). */
void
table04()
{
    banner("Table 4", "benchmark dataset inventory (synthetic stand-ins)");
    std::printf("%-14s%10s%8s%12s%10s%8s%8s%8s\n", "dataset", "#Vertex",
                "F", "#Edge", "storage", "deg CV", "gini", "top1%");
    for (DatasetId id : figureDatasets()) {
        const Dataset &ds = dataset(id);
        const DegreeStats stats = computeDegreeStats(ds.graph);
        std::printf("%-14s%10u%8d%12llu%10s%8.2f%8.2f%7.0f%%\n",
                    (ds.name + (ds.scale < 1.0 ? "*" : "")).c_str(),
                    ds.numVertices(), ds.featureLen,
                    static_cast<unsigned long long>(ds.numEdges()),
                    formatBytes(static_cast<double>(datasetStorageBytes(
                                    ds.graph, ds.featureLen)))
                        .c_str(),
                    stats.cv, stats.gini, stats.top1PercentShare * 100.0);
    }
    std::printf("\n* Reddit generated at 1/20 scale (average degree "
                "preserved); paper full sizes:\n");
    std::printf("  IB 2647/136/28624 1.5MB; CR 2708/1433/10556 15MB; "
                "CS 3327/3703/9104 47MB;\n  CL 12087/492/1446010 28MB; "
                "PB 19717/500/88648 38MB; RD 232965/602/114615892 "
                "972MB\n");
}

void
table06()
{
    banner("Table 6", "System configurations");
    const CpuConfig cpu;
    const GpuConfig gpu;
    const HyGCNConfig h;
    std::printf("%-16s %s\n", "PyG-CPU:",
                "2.5 GHz @ 24 cores, 60 MB on-chip, 136.5 GB/s DDR4");
    std::printf("%-16s   modeled: %.1f GHz, %u cores, L3 %.0f MB, "
                "%.1f GB/s\n",
                "", cpu.ghz, cpu.cores,
                cpu.l3.capacityBytes / 1048576.0 * 2,
                cpu.ddrBytesPerSec / 1e9);
    std::printf("%-16s %s\n", "PyG-GPU:",
                "1.25 GHz @ 5120 cores, 34 MB on-chip, ~900 GB/s HBM2");
    std::printf("%-16s   modeled: %.2f GHz, %.0f GFLOPS peak, "
                "%.0f GB/s\n",
                "", gpu.clockGhz, gpu.peakFlops / 1e9,
                gpu.memBytesPerSec / 1e9);
    std::printf("%-16s 1 GHz @ %u SIMD%u cores and %u systolic modules "
                "(each %ux%u)\n",
                "HyGCN:", h.simdCores, h.simdWidth, h.systolicModules,
                h.moduleRows, h.moduleCols);
    std::printf("%-16s   buffers: %llu KB input, %llu MB edge, %llu MB "
                "weight, %llu MB output, %llu MB aggregation\n",
                "",
                static_cast<unsigned long long>(h.inputBufBytes / 1024),
                static_cast<unsigned long long>(h.edgeBufBytes >> 20),
                static_cast<unsigned long long>(h.weightBufBytes >> 20),
                static_cast<unsigned long long>(h.outputBufBytes >> 20),
                static_cast<unsigned long long>(h.aggBufBytes >> 20));
    std::printf("%-16s   HBM 1.0: %u channels x %u banks, %.0f GB/s\n", "",
                h.hbm.channels, h.hbm.banksPerChannel,
                h.hbm.peakBytesPerSec() / 1e9);
}

void
table07()
{
    banner("Table 7", "HyGCN layout characteristics (area/power model)");
    const AreaPowerBreakdown b = computeAreaPower(HyGCNConfig{});
    header("module/component", {"Power %", "Area %"});
    for (const AreaPowerEntry &e : b.entries) {
        row(e.module.substr(0, 12) + "/" + e.component,
            {b.powerPercent(e), b.areaPercent(e)});
    }
    std::printf("%-22s%9.2f W%8.2f mm2\n", "TOTAL", b.totalPowerWatt(),
                b.totalAreaMm2());
    std::printf("\npaper: 6.7 W, 7.8 mm2; CombE computation 60.52%% / "
                "42.96%%; Coordinator buffer 17.66%% / 34.64%%\n");
}

/** Window geometry of a GCN first layer on @p data. */
PartitionDims
layerOneDims(const Dataset &data)
{
    PartitionConfig pc;
    pc.aggFeatureLen = data.featureLen;
    pc.srcFeatureLen = data.featureLen;
    return computePartitionDims(pc);
}

/** Feature rows loaded under a window mode for GCN layer 1. */
std::uint64_t
loadedRows(DatasetId ds_id, WindowMode mode)
{
    const Dataset &data = dataset(ds_id);
    const EdgeSet edges = EdgeSet::fromGraph(data.graph, true);
    const PartitionDims dims = layerOneDims(data);
    return buildWindowPlan(edges.view(), dims.intervalSize,
                           dims.windowHeight, dims.maxEdgesPerWindow, mode)
        .loadedRows;
}

void
ablation(const Runs &agg_mode)
{
    banner("Ablation", "decomposing HyGCN's design choices");

    std::printf("\n(1) feature rows loaded, normalized to grid (%%)\n");
    header("dataset", {"slide", "slide+shrink"});
    for (DatasetId ds : kStudyDatasets) {
        const double grid =
            static_cast<double>(loadedRows(ds, WindowMode::Grid));
        row(datasetAbbrev(ds),
            {loadedRows(ds, WindowMode::SlideOnly) / grid * 100.0,
             loadedRows(ds, WindowMode::SlideShrink) / grid * 100.0});
    }

    std::printf("\n(2) execution time, vertex-concentrated normalized "
                "to vertex-disperse (%%)\n");
    header("dataset", {"concentr %"});
    for (std::size_t i = 0; i < kStudyDatasets.size(); ++i) {
        const auto pair = perDataset(agg_mode, i);
        const double td = pair[0].report.seconds();
        const double tc = pair[1].report.seconds();
        row(datasetAbbrev(kStudyDatasets[i]), {tc / td * 100.0});
    }

    std::printf("\n(4) sampler modes at factor 4: kept edges and "
                "sparsity reduction\n");
    header("dataset",
           {"unif edges", "intvl edges", "unif red%", "intvl red%"});
    for (DatasetId ds : kStudyDatasets) {
        const Dataset &data = dataset(ds);
        const EdgeSet uniform =
            NeighborSampler::sampleByFactor(data.graph.csc(), 4, kSeed);
        const EdgeSet interval =
            NeighborSampler::sampleByIndexInterval(data.graph.csc(), 4);
        const PartitionDims dims = layerOneDims(data);
        auto reduction = [&](const EdgeSet &es) {
            const EdgeSet with_self = EdgeSet::fromView(es.view(), true);
            return buildWindowPlan(with_self.view(), dims.intervalSize,
                                   dims.windowHeight, dims.maxEdgesPerWindow,
                                   WindowMode::SlideShrink)
                       .sparsityReduction() *
                   100.0;
        };
        row(datasetAbbrev(ds),
            {static_cast<double>(uniform.numEdges()),
             static_cast<double>(interval.numEdges()), reduction(uniform),
             reduction(interval)},
            "%11.1f");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_dir;
    if (argc == 3 && std::strcmp(argv[1], "--json-dir") == 0) {
        json_dir = argv[2];
    } else if (argc != 1) {
        std::fprintf(stderr, "usage: %s [--json-dir DIR]\n", argv[0]);
        return 2;
    }

    const std::vector<Runs> runs = runSweeps(sweeps());
    const Grid grid(runs);
    bool ok = true;
    const auto emit = [&](const char *fig, const std::string &doc) {
        if (!json_dir.empty())
            ok = writeJson(json_dir + "/BENCH_" + fig + ".json", doc) && ok;
    };
    figure02(grid);
    emit("fig10", figure10(grid));
    emit("fig11", figure11(grid));
    emit("fig12", figure12(grid));
    figure13(grid);
    figure14(grid);
    figure15(runs[kFig15]);
    figure16(runs[kFig16Pipeline], runs[kFig16Mode]);
    figure17(runs[kFig17]);
    figure18(runs);
    // Tables 2 and 3 read the grid's PyG-CPU GCN/CL run.
    const SimReport &cpu_cl = grid("pyg-cpu", ModelId::GCN, DatasetId::CL);
    table02(cpu_cl);
    table03(cpu_cl);
    table04();
    table06();
    table07();
    ablation(runs[kAblationAggMode]);
    return ok ? 0 : 1;
}
