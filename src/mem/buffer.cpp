#include "mem/buffer.hpp"

#include <utility>

namespace hygcn {

OnChipBuffer::OnChipBuffer(std::string name, std::uint64_t capacity_bytes,
                           bool double_buffered, std::string component,
                           const EnergyTable &energy)
    : name_(std::move(name)), readKey_(name_ + ".read_bytes"),
      writeKey_(name_ + ".write_bytes"), capacityBytes_(capacity_bytes),
      doubleBuffered_(double_buffered), component_(std::move(component)),
      perByte_(energy.edramPerByte(capacity_bytes))
{
}

void
OnChipBuffer::read(std::uint64_t bytes, EnergyLedger &ledger,
                   StatGroup &stats)
{
    ledger.charge(component_, perByte_ * static_cast<double>(bytes));
    stats.add(readKey_, bytes);
}

void
OnChipBuffer::write(std::uint64_t bytes, EnergyLedger &ledger,
                    StatGroup &stats)
{
    ledger.charge(component_, perByte_ * static_cast<double>(bytes));
    stats.add(writeKey_, bytes);
}

} // namespace hygcn
