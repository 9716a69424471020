#include "graph/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "graph/generator.hpp"

namespace hygcn {

namespace {

/** Static Table 4 row. */
struct Spec
{
    const char *name;
    const char *abbrev;
    VertexId vertices;
    int feature_len;
    EdgeId directed_edges;
    enum class Kind { Uniform, Rmat, MultiGraph } kind;
    int components;
};

Spec
specOf(DatasetId id)
{
    switch (id) {
      case DatasetId::IB:
        return {"IMDB-BINARY", "IB", 2647, 136, 28624,
                Spec::Kind::MultiGraph, 128};
      case DatasetId::CR:
        return {"Cora", "CR", 2708, 1433, 10556, Spec::Kind::Rmat, 1};
      case DatasetId::CS:
        return {"Citeseer", "CS", 3327, 3703, 9104, Spec::Kind::Rmat, 1};
      case DatasetId::CL:
        return {"COLLAB", "CL", 12087, 492, 1446010,
                Spec::Kind::MultiGraph, 128};
      case DatasetId::PB:
        return {"Pubmed", "PB", 19717, 500, 88648, Spec::Kind::Rmat, 1};
      case DatasetId::RD:
        return {"Reddit", "RD", 232965, 602, 114615892,
                Spec::Kind::Rmat, 1};
    }
    throw std::invalid_argument("unknown dataset id");
}

/**
 * Split @p total_vertices into @p n component sizes with a skewed
 * distribution (a few large ego-network-like components hold most of
 * the mass), then apportion undirected edges proportionally to the
 * maximum possible edges of each component so dense kernels stay
 * feasible.
 */
void
planComponents(VertexId total_vertices, EdgeId undirected_edges, int n,
               Rng &rng, std::vector<VertexId> &sizes,
               std::vector<EdgeId> &edges)
{
    sizes.assign(n, 0);
    double weight_sum = 0.0;
    std::vector<double> weights(n);
    for (int i = 0; i < n; ++i) {
        // Zipf-ish component sizes: rank^-0.7 plus noise.
        weights[i] = std::pow(i + 1.0, -0.7) * (0.8 + 0.4 * rng.nextDouble());
        weight_sum += weights[i];
    }
    VertexId assigned = 0;
    for (int i = 0; i < n; ++i) {
        auto s = static_cast<VertexId>(
            std::max(3.0, weights[i] / weight_sum * total_vertices));
        sizes[i] = s;
        assigned += s;
    }
    // Fix rounding drift on the largest component.
    while (assigned > total_vertices) {
        for (int i = 0; i < n && assigned > total_vertices; ++i) {
            if (sizes[i] > 3) {
                --sizes[i];
                --assigned;
            }
        }
    }
    while (assigned < total_vertices) {
        sizes[0] += (total_vertices - assigned);
        assigned = total_vertices;
    }

    // Edges proportional to each component's capacity.
    edges.assign(n, 0);
    double cap_sum = 0.0;
    std::vector<double> caps(n);
    for (int i = 0; i < n; ++i) {
        caps[i] = 0.5 * static_cast<double>(sizes[i]) * (sizes[i] - 1);
        cap_sum += caps[i];
    }
    EdgeId placed = 0;
    for (int i = 0; i < n; ++i) {
        const auto cap = static_cast<EdgeId>(caps[i]);
        auto e = static_cast<EdgeId>(caps[i] / cap_sum * undirected_edges);
        e = std::min(e, cap);
        e = std::max<EdgeId>(e, std::min<EdgeId>(cap, sizes[i]));
        edges[i] = e;
        placed += e;
    }
    // Distribute any shortfall into components with headroom.
    for (int i = 0; i < n && placed < undirected_edges; ++i) {
        const auto cap = static_cast<EdgeId>(caps[i]);
        const EdgeId room = cap - edges[i];
        const EdgeId want = undirected_edges - placed;
        const EdgeId take = std::min(room, want);
        edges[i] += take;
        placed += take;
    }
    // Trim any excess.
    for (int i = 0; i < n && placed > undirected_edges; ++i) {
        const EdgeId excess = placed - undirected_edges;
        const EdgeId slack = edges[i] > sizes[i] ? edges[i] - sizes[i] : 0;
        const EdgeId drop = std::min(excess, slack);
        edges[i] -= drop;
        placed -= drop;
    }
}

/** Vertex count makeDataset builds for @p spec at @p scale. */
VertexId
scaledVertices(const Spec &spec, double scale)
{
    return static_cast<VertexId>(
        std::max(16.0, std::round(spec.vertices * scale)));
}

} // namespace

void
buildableOrThrow(DatasetId id, double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw std::invalid_argument("dataset scale must be in (0, 1]");
    const Spec spec = specOf(id);
    const VertexId vertices = scaledVertices(spec, scale);
    // planComponents gives every component at least 3 vertices.
    if (spec.kind == Spec::Kind::MultiGraph &&
        vertices < 3 * static_cast<VertexId>(spec.components))
        throw std::invalid_argument(
            std::string("dataset ") + spec.abbrev + ": " +
            std::to_string(vertices) + " vertices cannot hold " +
            std::to_string(spec.components) +
            " components of at least 3 vertices each");
}

std::vector<DatasetId>
allDatasets()
{
    return {DatasetId::IB, DatasetId::CR, DatasetId::CS,
            DatasetId::CL, DatasetId::PB, DatasetId::RD};
}

std::string
datasetAbbrev(DatasetId id)
{
    return specOf(id).abbrev;
}

std::string
datasetName(DatasetId id)
{
    return specOf(id).name;
}

Dataset
makeDataset(DatasetId id, std::uint64_t seed, double scale)
{
    buildableOrThrow(id, scale);
    const Spec spec = specOf(id);

    const VertexId vertices = scaledVertices(spec, scale);
    auto undirected = static_cast<EdgeId>(
        std::max(16.0, std::round(spec.directed_edges / 2.0 * scale)));

    Rng rng(seed ^ (static_cast<std::uint64_t>(id) << 32));

    Dataset ds;
    ds.id = id;
    ds.name = spec.name;
    ds.abbrev = spec.abbrev;
    ds.featureLen = spec.feature_len;
    ds.scale = scale;

    EdgeList edges;
    switch (spec.kind) {
      case Spec::Kind::Uniform:
        edges = generateUniform(vertices, undirected, rng);
        break;
      case Spec::Kind::Rmat:
        edges = generateRmat(vertices, undirected, rng);
        break;
      case Spec::Kind::MultiGraph: {
        std::vector<VertexId> sizes;
        std::vector<EdgeId> per_component;
        planComponents(vertices, undirected, spec.components, rng, sizes,
                       per_component);
        edges = assembleComponents(sizes, per_component, rng,
                                   ds.graphBoundaries);
        break;
      }
    }
    ds.graph = Graph::fromEdges(vertices, std::move(edges), true);
    return ds;
}

Dataset
makeDatasetScaledDefault(DatasetId id, std::uint64_t seed)
{
    const double scale = (id == DatasetId::RD) ? 0.05 : 1.0;
    return makeDataset(id, seed, scale);
}

void
replicableOrThrow(const Dataset &base, std::uint32_t copies)
{
    const VertexId n = base.graph.numVertices();
    if (copies > 1 && n > 0 &&
        copies > (~VertexId{0} - 1) / static_cast<VertexId>(n))
        throw std::invalid_argument(
            "dataset: replicated vertex count overflows VertexId");
}

Dataset
replicateDataset(const Dataset &base, std::uint32_t copies)
{
    if (copies <= 1)
        return base;
    replicableOrThrow(base, copies);
    const VertexId n = base.graph.numVertices();

    // The base graph is already symmetrized; lift its directed CSC
    // edges verbatim per copy so the union is byte-equivalent to
    // `copies` independent instances laid out back to back.
    const CscView view = base.graph.csc();
    EdgeList edges;
    edges.reserve(static_cast<std::size_t>(base.graph.numEdges()) *
                  copies);
    for (std::uint32_t c = 0; c < copies; ++c) {
        const VertexId offset = c * n;
        for (VertexId v = 0; v < n; ++v)
            for (VertexId src : view.sources(v))
                edges.emplace_back(offset + src, offset + v);
    }

    Dataset out;
    out.id = base.id;
    out.name = base.name;
    out.abbrev = base.abbrev;
    out.featureLen = base.featureLen;
    out.scale = base.scale;
    const std::vector<VertexId> bounds =
        base.graphBoundaries.empty() ? std::vector<VertexId>{0, n}
                                     : base.graphBoundaries;
    out.graphBoundaries.reserve((bounds.size() - 1) * copies + 1);
    out.graphBoundaries.push_back(0);
    for (std::uint32_t c = 0; c < copies; ++c) {
        const VertexId offset = c * n;
        for (std::size_t b = 1; b < bounds.size(); ++b)
            out.graphBoundaries.push_back(offset + bounds[b]);
    }
    out.graph = Graph::fromEdges(n * copies, std::move(edges), false);
    return out;
}

} // namespace hygcn
