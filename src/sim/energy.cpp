#include "sim/energy.hpp"

namespace hygcn {

PicoJoule
EnergyTable::edramPerByte(std::uint64_t bytes) const
{
    if (bytes <= 256 * 1024)
        return edramSmallPerByte;
    if (bytes <= 4ull * 1024 * 1024)
        return edramMidPerByte;
    return edramLargePerByte;
}

} // namespace hygcn
