#include "api/session.hpp"

#include <stdexcept>

#include "api/registry.hpp"
#include "sim/thread_pool.hpp"

namespace hygcn::api {

namespace {

/** @p axis, or just @p fallback when the axis was never set. */
template <class T>
std::vector<T>
orBase(const std::vector<T> &axis, const T &fallback)
{
    return axis.empty() ? std::vector<T>{fallback} : axis;
}

} // namespace

Session &
Session::platform(const std::string &name)
{
    platforms_ = {name};
    return *this;
}

Session &
Session::platforms(std::vector<std::string> names)
{
    platforms_ = std::move(names);
    return *this;
}

Session &
Session::dataset(DatasetId id)
{
    datasets_ = {id};
    // An id selection replaces any earlier custom-name selection;
    // a lingering name would silently override the id at run time.
    base_.datasetName.clear();
    return *this;
}

Session &
Session::dataset(const std::string &name)
{
    const Registry &registry = Registry::global();
    try {
        return dataset(registry.datasetId(name));
    } catch (const std::out_of_range &) {
        // Not a built-in: registered custom datasets address by name
        // through the base spec. The name overrides ids at run time,
        // so collapse any multi-id axis — it would only expand into
        // duplicate runs of this dataset.
        if (!registry.datasets.has(name))
            throw;
        base_.datasetName = name;
        datasets_ = {base_.dataset};
    }
    return *this;
}

Session &
Session::datasets(std::vector<DatasetId> ids)
{
    datasets_ = std::move(ids);
    base_.datasetName.clear();
    return *this;
}

Session &
Session::model(ModelId id)
{
    models_ = {id};
    base_.modelName.clear();
    return *this;
}

Session &
Session::model(const std::string &name)
{
    const Registry &registry = Registry::global();
    try {
        return model(registry.modelId(name));
    } catch (const std::out_of_range &) {
        if (!registry.models.has(name))
            throw;
        base_.modelName = name;
        models_ = {base_.model};
    }
    return *this;
}

Session &
Session::models(std::vector<ModelId> ids)
{
    models_ = std::move(ids);
    base_.modelName.clear();
    return *this;
}

Session &
Session::vary(const std::string &key, std::vector<double> values)
{
    varies_.emplace_back(key, std::move(values));
    return *this;
}

Session &
Session::numLayers(int k)
{
    base_.numLayers = k;
    return *this;
}

Session &
Session::seed(std::uint64_t seed)
{
    base_.seed = seed;
    return *this;
}

Session &
Session::datasetScale(double scale)
{
    base_.datasetScale = scale;
    return *this;
}

Session &
Session::functional(bool on)
{
    base_.functional = on;
    return *this;
}

Session &
Session::withReadout(bool on)
{
    base_.withReadout = on;
    return *this;
}

Session &
Session::collectTrace(bool on)
{
    base_.collectTrace = on;
    return *this;
}

Session &
Session::sampleFactor(std::uint32_t factor)
{
    base_.sampleFactor = factor;
    return *this;
}

Session &
Session::kernelThreads(int count)
{
    base_.threads = count;
    return *this;
}

Session &
Session::config(const HyGCNConfig &config)
{
    base_.hygcn = config;
    return *this;
}

Session &
Session::threads(unsigned count)
{
    threads_ = count;
    return *this;
}

std::vector<RunSpec>
Session::expand() const
{
    std::vector<RunSpec> specs;
    for (const std::string &platform : orBase(platforms_, base_.platform)) {
        for (DatasetId dataset : orBase(datasets_, base_.dataset)) {
            for (ModelId model : orBase(models_, base_.model)) {
                RunSpec spec = base_;
                spec.platform = platform;
                spec.dataset = dataset;
                spec.model = model;
                specs.push_back(std::move(spec));
            }
        }
    }

    // Each vary() axis multiplies the expansion, innermost last:
    // earlier axes change slowest, matching declaration order.
    for (const auto &[key, values] : varies_) {
        if (values.empty())
            throw std::invalid_argument("api: vary(\"" + key +
                                        "\") has no values");
        std::vector<RunSpec> next;
        next.reserve(specs.size() * values.size());
        for (const RunSpec &spec : specs) {
            for (double value : values) {
                RunSpec varied = spec;
                applyParam(varied, key, value);
                next.push_back(std::move(varied));
            }
        }
        specs = std::move(next);
    }
    return specs;
}

std::vector<RunResult>
Session::runAll() const
{
    const std::vector<RunSpec> specs = expand();
    std::vector<RunResult> results(specs.size());
    auto run = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            results[i] = Registry::global()
                             .platforms.make(specs[i].platform)
                             ->run(specs[i]);
    };
    ThreadPool::global().parallelFor(threads_, specs.size(), 1, run);
    return results;
}

RunResult
Session::runOne() const
{
    std::vector<RunResult> results = runAll();
    if (results.size() != 1)
        throw std::logic_error(
            "api: runOne() on a sweep expanding to " +
            std::to_string(results.size()) + " runs; use runAll()");
    return std::move(results.front());
}

} // namespace hygcn::api
