#include "mem/buffer.hpp"

namespace hygcn {

OnChipBuffer::OnChipBuffer(std::uint64_t capacity_bytes, Counter read_bytes,
                           Counter write_bytes, Energy component,
                           const EnergyTable &energy)
    : capacityBytes_(capacity_bytes), readBytes_(read_bytes),
      writeBytes_(write_bytes), component_(component),
      perByte_(energy.edramPerByte(capacity_bytes))
{
}

void
OnChipBuffer::read(std::uint64_t bytes, EnergyLedger &ledger,
                   StatGroup &stats)
{
    ledger.charge(component_, perByte_ * static_cast<double>(bytes));
    stats.add(readBytes_, bytes);
}

void
OnChipBuffer::write(std::uint64_t bytes, EnergyLedger &ledger,
                    StatGroup &stats)
{
    ledger.charge(component_, perByte_ * static_cast<double>(bytes));
    stats.add(writeBytes_, bytes);
}

} // namespace hygcn
