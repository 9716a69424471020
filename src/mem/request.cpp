#include "mem/request.hpp"

namespace hygcn {

void
emitLines(std::vector<MemRequest> &out, Addr base, std::uint64_t offset,
          std::uint64_t bytes, RequestType type, bool is_write)
{
    if (bytes == 0)
        return;
    const Addr first = (base + offset) / kLineBytes;
    const Addr last = (base + offset + bytes - 1) / kLineBytes;
    out.push_back({first * kLineBytes,
                   static_cast<std::uint32_t>(kLineBytes), is_write, type,
                   last - first + 1});
}

} // namespace hygcn
