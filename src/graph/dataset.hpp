/**
 * @file
 * Benchmark dataset registry reproducing Table 4 of the paper.
 *
 * The real files (Planetoid/TU-Dortmund/Reddit) are not available
 * offline, so each dataset is a deterministic synthetic stand-in with
 * the same vertex count, directed edge count, feature length, and a
 * matching degree shape (README.md, "Modelling substitutions", 5). The
 * multi-graph kernels (IMDB-BINARY, COLLAB) are assembled from 128
 * generated components exactly as the paper batches 128 random graphs.
 */

#ifndef HYGCN_GRAPH_DATASET_HPP
#define HYGCN_GRAPH_DATASET_HPP

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace hygcn {

/** The six benchmark datasets of Table 4. */
enum class DatasetId
{
    IB, ///< IMDB-BINARY: 2,647 v / 136 f / 28,624 e (128 graphs)
    CR, ///< Cora:        2,708 v / 1,433 f / 10,556 e
    CS, ///< Citeseer:    3,327 v / 3,703 f / 9,104 e
    CL, ///< COLLAB:     12,087 v / 492 f / 1,446,010 e (128 graphs)
    PB, ///< Pubmed:     19,717 v / 500 f / 88,648 e
    RD, ///< Reddit:    232,965 v / 602 f / 114,615,892 e
};

/** All dataset ids in Table 4 order. */
std::vector<DatasetId> allDatasets();

/** Two-letter abbreviation used in every paper figure. */
std::string datasetAbbrev(DatasetId id);

/** Full dataset name. */
std::string datasetName(DatasetId id);

/** A loaded benchmark dataset. */
struct Dataset
{
    DatasetId id;
    std::string name;
    std::string abbrev;
    /** Symmetrized benchmark graph. */
    Graph graph;
    /** Input feature vector length (Table 4 "Feature Length"). */
    int featureLen = 0;
    /**
     * Component boundaries for multi-graph datasets (prefix vertex
     * offsets, size components+1); empty for single-graph datasets.
     */
    std::vector<VertexId> graphBoundaries;
    /** Scale factor actually applied (1.0 = full Table 4 size). */
    double scale = 1.0;

    VertexId numVertices() const { return graph.numVertices(); }
    EdgeId numEdges() const { return graph.numEdges(); }
};

/**
 * Synthesize dataset @p id.
 *
 * @param id Which benchmark dataset.
 * @param seed Deterministic generation seed.
 * @param scale Linear vertex scale in (0, 1]; edges scale by the same
 *        factor (average degree preserved). Used to keep the Reddit
 *        stand-in tractable in benches (default full size for all
 *        other datasets; see makeDatasetScaledDefault()).
 */
Dataset makeDataset(DatasetId id, std::uint64_t seed = 1, double scale = 1.0);

/**
 * Throws std::invalid_argument if makeDataset(id, seed, scale) would
 * reject: @p scale outside (0, 1], or a multi-graph dataset scaled
 * below 3 vertices per component. Callers that must not let the
 * build itself throw — e.g. cache slots filling under a once_flag —
 * validate here first.
 */
void buildableOrThrow(DatasetId id, double scale);

/**
 * Dataset at the default benchmarking scale: full Table 4 size for
 * IB/CR/CS/CL/PB and a 1/20-scale Reddit (11,648 vertices, average
 * degree preserved). The substitution is recorded in README.md,
 * "Modelling substitutions", 5.
 */
Dataset makeDatasetScaledDefault(DatasetId id, std::uint64_t seed = 1);

/**
 * Disjoint union of @p copies identical copies of @p base — the
 * multi-graph form of serving a co-batch of @p copies inferences of
 * the same scenario in one accelerator pass. Component boundaries
 * are preserved per copy (so Readout still reduces per original
 * component), features and scale carry over, and copies <= 1 returns
 * @p base unchanged. The graph is Graph::blockDiagonal(): the base
 * CSC and CSR arrays tiled with offsets, about the cost of a copy.
 */
Dataset replicateDataset(const Dataset &base, std::uint32_t copies);

/**
 * Throws std::invalid_argument if replicateDataset(base, copies)
 * would reject (replicated vertex count overflows VertexId).
 * Callers that must not let the replication itself throw — e.g.
 * cache slots filling under a once_flag — validate here first.
 */
void replicableOrThrow(const Dataset &base, std::uint32_t copies);

} // namespace hygcn

#endif // HYGCN_GRAPH_DATASET_HPP
