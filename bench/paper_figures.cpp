/**
 * @file
 * The paper's evaluation grid, run once, and every figure that reads
 * it. Five platforms (PyG-CPU, PyG-CPU-OP, PyG-GPU, PyG-GPU-OP,
 * HyGCN) x {GCN, GSC, GIN} x the six Table 4 datasets, plus DiffPool
 * on IB/CL as in the paper: 100 runs, expanded as two Session sweeps
 * on a parallel worker pool. Every run is deterministic in its spec,
 * so the tables do not depend on the worker count. Printed in order:
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
#include <string>
#include <tuple>
#include <vector>

#include "baseline/cpu_model.hpp"
#include "bench/common.hpp"

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

/** Every kSeed run of the evaluation, by (platform, model, dataset). */
class Grid
{
  public:
    Grid()
    {
        const std::vector<std::string> platforms = {
            "pyg-cpu", "pyg-cpu-part", "pyg-gpu", "pyg-gpu-part",
            "hygcn"};
        const api::Session sweeps[] = {
            session()
                .platforms(platforms)
                .models({ModelId::GCN, ModelId::GSC, ModelId::GIN})
                .datasets(figureDatasets()),
            session()
                .platforms(platforms)
                .model(ModelId::DFP)
                .datasets(diffpoolDatasets()),
        };
        for (const api::Session &sweep : sweeps)
            for (api::RunResult &r : sweep.runAll())
                reports_.emplace(std::tuple(r.spec.platform, r.spec.model,
                                            r.spec.dataset),
                                 std::move(r.report));
    }

    const SimReport &
    operator()(const std::string &platform, const Case &c) const
    {
        return reports_.at({platform, c.model, c.dataset});
    }

  private:
    std::map<std::tuple<std::string, ModelId, DatasetId>, SimReport> reports_;
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

    const Grid grid;
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
    return ok ? 0 : 1;
}
