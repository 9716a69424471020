/**
 * @file
 * google-benchmark microbenchmarks of the HBM timing model: service
 * rate for streaming vs random request patterns, with and without
 * low-bit channel interleaving. The *Run twins service the same
 * streaming lines as one request run instead of one request per line,
 * so per-line and per-run rates (items = lines) sit side by side.
 * Validates that the model itself is fast enough to back the
 * execution-driven simulation.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "mem/dram.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

std::vector<MemRequest>
makeRequests(std::size_t count, bool sequential)
{
    Rng rng(99);
    std::vector<MemRequest> reqs;
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const Addr addr = sequential
                              ? static_cast<Addr>(i) * kLineBytes
                              : (rng.next() % (1ull << 30)) & ~63ull;
        reqs.push_back({addr, 64, false, RequestType::InputFeature});
    }
    return reqs;
}

/** One run of @p count lines from address 0. */
std::vector<MemRequest>
makeRun(std::size_t count)
{
    return {{0, 64, false, RequestType::InputFeature, count}};
}

/** Service @p reqs from a cold timing state per iteration; items are
 *  lines. */
void
serviceLines(benchmark::State &state, const HbmConfig &config,
             const std::vector<MemRequest> &reqs)
{
    HbmModel hbm(config);
    std::uint64_t lines = 0;
    for (const MemRequest &req : reqs)
        lines += req.lines;
    for (auto _ : state) {
        hbm.resetTiming();
        benchmark::DoNotOptimize(hbm.serviceBatch(reqs, 0));
    }
    state.SetItemsProcessed(state.iterations() * lines);
}

HbmConfig
highBitConfig()
{
    HbmConfig config;
    config.lowBitChannelInterleave = false;
    return config;
}

void
BM_HbmStreaming(benchmark::State &state)
{
    serviceLines(state, HbmConfig{},
                 makeRequests(static_cast<std::size_t>(state.range(0)),
                              true));
}

void
BM_HbmStreamingRun(benchmark::State &state)
{
    serviceLines(state, HbmConfig{},
                 makeRun(static_cast<std::size_t>(state.range(0))));
}

void
BM_HbmRandom(benchmark::State &state)
{
    serviceLines(state, HbmConfig{},
                 makeRequests(static_cast<std::size_t>(state.range(0)),
                              false));
}

void
BM_HbmHighBitMap(benchmark::State &state)
{
    serviceLines(state, highBitConfig(),
                 makeRequests(static_cast<std::size_t>(state.range(0)),
                              true));
}

void
BM_HbmHighBitMapRun(benchmark::State &state)
{
    serviceLines(state, highBitConfig(),
                 makeRun(static_cast<std::size_t>(state.range(0))));
}

} // namespace

BENCHMARK(BM_HbmStreaming)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_HbmStreamingRun)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_HbmRandom)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_HbmHighBitMap)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_HbmHighBitMapRun)->Arg(1 << 12)->Arg(1 << 16);
