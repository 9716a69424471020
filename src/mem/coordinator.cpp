#include "mem/coordinator.hpp"

#include <algorithm>
#include <array>

namespace hygcn {

MemoryCoordinator::MemoryCoordinator(HbmModel &hbm,
                                     const CoordinatorConfig &config)
    : hbm_(hbm), config_(config)
{
}

Cycle
MemoryCoordinator::issueBatch(std::vector<MemRequest> requests, Cycle now)
{
    std::uint64_t lines = 0;
    for (const MemRequest &req : requests)
        lines += req.lines;
    if (lines == 0)
        return now;
    stats_.add(Counter::CoordBatches);
    stats_.add(Counter::CoordRequests, lines);

    if (config_.priorityReorder) {
        // Each run has one type, so sorting runs orders their lines
        // exactly as sorting the lines themselves would.
        std::stable_sort(requests.begin(), requests.end(),
                         [](const MemRequest &a, const MemRequest &b) {
                             return requestPriority(a.type) <
                                    requestPriority(b.type);
                         });
        return hbm_.serviceBatch(requests, now);
    }

    // Uncoordinated: the memory controller sees the four buffer
    // streams interleaved chunk-by-chunk, breaking address
    // continuity and thus row-buffer locality. A chunk takes its
    // stream's next lines, splitting runs where it ends.
    std::array<std::vector<MemRequest>, 5> streams;
    for (const MemRequest &req : requests)
        streams[static_cast<std::size_t>(req.type)].push_back(req);

    const std::uint64_t chunk = std::max<std::uint32_t>(
        1, config_.interleaveChunk);
    std::vector<MemRequest> interleaved;
    interleaved.reserve(requests.size() + lines / chunk);
    std::array<std::size_t, 5> pos{};
    std::array<std::uint64_t, 5> taken{}; // lines of the run at pos[s]
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            const auto &stream = streams[s];
            for (std::uint64_t want = chunk;
                 want > 0 && pos[s] < stream.size();) {
                MemRequest piece = stream[pos[s]];
                piece.addr += taken[s] * kLineBytes;
                piece.lines = std::min(want, piece.lines - taken[s]);
                interleaved.push_back(piece);
                want -= piece.lines;
                taken[s] += piece.lines;
                if (taken[s] == stream[pos[s]].lines) {
                    ++pos[s];
                    taken[s] = 0;
                }
                progressed = true;
            }
        }
    }
    return hbm_.serviceBatch(interleaved, now);
}

} // namespace hygcn
