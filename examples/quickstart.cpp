/**
 * @file
 * Quickstart: run a 2-layer GCN over the Cora stand-in on the HyGCN
 * accelerator, validate the functional output against the golden
 * reference executor, and print the timing/energy report.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/accelerator.hpp"
#include "graph/dataset.hpp"
#include "model/models.hpp"
#include "model/reference.hpp"

using namespace hygcn;

int
main()
{
    // 1. Load a benchmark dataset (synthetic stand-in for Cora).
    const Dataset dataset = makeDataset(DatasetId::CR, /*seed=*/1);
    std::printf("dataset: %s  |V|=%u  |E|=%llu  F=%d\n",
                dataset.name.c_str(), dataset.numVertices(),
                static_cast<unsigned long long>(dataset.numEdges()),
                dataset.featureLen);

    // 2. Build the GCN model of Table 5 and deterministic parameters.
    const ModelConfig model = makeModel(ModelId::GCN, dataset.featureLen);
    const ModelParams params = makeParams(model, /*seed=*/42);
    const Matrix x0 =
        makeFeatures(dataset.numVertices(), dataset.featureLen, 3);

    // 3. Run on the accelerator (functional + timing).
    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult result =
        accel.run(dataset, model, params, &x0, /*sample_seed=*/7);

    // 4. Validate against the golden reference executor.
    const ReferenceExecutor reference(dataset.graph);
    const ReferenceResult golden =
        reference.run(model, params, x0, /*sample_seed=*/7);
    const float err = Matrix::maxAbsDiff(result.layerOutputs.back(),
                                         golden.layerOutputs.back());
    std::printf("functional check vs reference: max |diff| = %g %s\n",
                static_cast<double>(err),
                Matrix::bytesEqual(result.layerOutputs.back(),
                                   golden.layerOutputs.back())
                    ? "(bit-exact)"
                    : "");

    // 5. Report.
    const SimReport &r = result.report;
    std::printf("cycles:           %llu (%s at 1 GHz)\n",
                static_cast<unsigned long long>(r.cycles),
                formatSeconds(r.seconds()).c_str());
    std::printf("energy:           %s\n", formatJoules(r.joules()).c_str());
    std::printf("DRAM traffic:     %s (row-hit rate %.1f%%)\n",
                formatBytes(static_cast<double>(r.dramBytes())).c_str(),
                100.0 * r.stats.get("dram.row_hits") /
                    static_cast<double>(r.stats.get("dram.row_hits") +
                                        r.stats.get("dram.row_misses")));
    std::printf("bandwidth util:   %.1f%%\n",
                100.0 * r.stats.gauge("dram.bandwidth_utilization"));
    std::printf("sparsity reduced: %.1f%% of grid feature loads\n",
                100.0 * r.stats.gauge("plan.sparsity_reduction"));
    r.energy.forEach([](std::string_view name, PicoJoule pj) {
        std::printf("  energy[%-12s] = %s\n", std::string(name).c_str(),
                    formatJoules(pj * 1e-12).c_str());
    });
    return err == 0.0f ? 0 : 1;
}
