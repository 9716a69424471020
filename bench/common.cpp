#include "bench/common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "api/dataset_cache.hpp"
#include "baseline/gpu_model.hpp"

namespace hygcn::bench {

std::vector<DatasetId>
figureDatasets()
{
    return {DatasetId::IB, DatasetId::CR, DatasetId::CS,
            DatasetId::CL, DatasetId::PB, DatasetId::RD};
}

std::vector<DatasetId>
diffpoolDatasets()
{
    return {DatasetId::IB, DatasetId::CL};
}

api::Session
session()
{
    api::Session s;
    s.seed(kSeed);
    return s;
}

const Dataset &
dataset(DatasetId id)
{
    return api::DatasetCache::global().get(id);
}

bool
gpuWouldOomFullSize(ModelId m, DatasetId ds)
{
    // Full Table 4 sizes.
    struct FullSize { double v, e; int f; };
    const std::map<DatasetId, FullSize> sizes = {
        {DatasetId::IB, {2647, 28624, 136}},
        {DatasetId::CR, {2708, 10556, 1433}},
        {DatasetId::CS, {3327, 9104, 3703}},
        {DatasetId::CL, {12087, 1446010, 492}},
        {DatasetId::PB, {19717, 88648, 500}},
        {DatasetId::RD, {232965, 114615892, 602}},
    };
    const FullSize fs = sizes.at(ds);
    const ModelConfig mc = makeModel(m, fs.f);
    const GpuConfig gc;

    double working_set = fs.v * fs.f * 4.0 + fs.e * 12.0;
    for (const LayerConfig &layer : mc.layers) {
        double edges = fs.e;
        if (layer.sampleNeighbors > 0)
            edges = std::min<double>(edges,
                                     fs.v * layer.sampleNeighbors);
        const int f_agg = mc.cpuCombineFirst ? layer.outFeatures()
                                             : layer.inFeatures;
        const bool materializes =
            layer.aggOp != AggOp::Add || !mc.cpuCombineFirst;
        if (materializes)
            working_set += edges * f_agg * 4.0;
    }
    return working_set > static_cast<double>(gc.memCapacityBytes);
}

std::string
jsonNumber(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

bool
writeJson(const std::string &path, const std::string &doc)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << doc << "\n";
    file.close(); // flushes; a failed flush sets failbit
    if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), doc.size() + 1);
    return true;
}

void
banner(const std::string &experiment, const std::string &what)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s — %s\n", experiment.c_str(), what.c_str());
    std::printf("(synthetic Table-4 stand-in datasets; Reddit at 1/20 "
                "scale; see README.md, Modelling substitutions)\n");
    std::printf("==============================================="
                "=============================\n");
}

void
row(const std::string &label, const std::vector<double> &values,
    const char *fmt)
{
    std::printf("%-22s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

void
header(const std::string &label, const std::vector<std::string> &columns)
{
    std::printf("%-22s", label.c_str());
    // The space keeps labels of 10 or more characters apart; labels
    // of up to 9 still fill exactly 10 columns.
    for (const auto &c : columns)
        std::printf(" %9s", c.c_str());
    std::printf("\n");
}

} // namespace hygcn::bench
