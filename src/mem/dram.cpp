#include "mem/dram.hpp"

#include <algorithm>
#include <cstdio>

namespace hygcn {

HbmModel::HbmModel(const HbmConfig &config) : config_(config)
{
    channels_.resize(config_.channels);
    for (Channel &ch : channels_)
        ch.banks.resize(config_.banksPerChannel);
    channelBytes_.assign(config_.channels, 0);
    foldedChannelBytes_.assign(config_.channels, 0);
}

void
HbmModel::foldCounters() const
{
    // A key appears once its event has happened, even when the delta
    // is 0 (a zero-byte read still creates "dram.read_bytes").
    auto fold = [this](const char *name, bool happened, std::uint64_t delta) {
        if (happened)
            stats_.add(name, delta);
    };
    const Counters &c = counters_;
    const Counters &f = folded_;
    const std::uint64_t new_requests =
        (c.reads + c.writes) - (f.reads + f.writes);
    fold("dram.row_hits", c.rowHits != f.rowHits, c.rowHits - f.rowHits);
    fold("dram.row_misses", c.rowMisses != f.rowMisses,
         c.rowMisses - f.rowMisses);
    fold("dram.requests", new_requests != 0, new_requests);
    fold("dram.busy_cycles", new_requests != 0, c.busyCycles - f.busyCycles);
    fold("dram.read_bytes", c.reads != f.reads, c.readBytes - f.readBytes);
    fold("dram.write_bytes", c.writes != f.writes,
         c.writeBytes - f.writeBytes);
    folded_ = counters_;

    for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
        const std::uint64_t delta =
            channelBytes_[ch] - foldedChannelBytes_[ch];
        if (delta == 0)
            continue;
        char name[32];
        std::snprintf(name, sizeof(name), "dram.ch%02u.bytes", ch);
        stats_.add(name, delta);
        foldedChannelBytes_[ch] = channelBytes_[ch];
    }
}

void
HbmModel::mapAddr(Addr addr, std::uint32_t &channel, std::uint32_t &bank,
                  std::int64_t &row) const
{
    const Addr line = addr / kLineBytes;
    const std::uint64_t lines_per_row = config_.rowBytes / kLineBytes;
    if (config_.lowBitChannelInterleave) {
        channel = static_cast<std::uint32_t>(line % config_.channels);
        const Addr in_channel = line / config_.channels;
        bank = static_cast<std::uint32_t>(
            (in_channel / lines_per_row) % config_.banksPerChannel);
        row = static_cast<std::int64_t>(
            in_channel / (lines_per_row * config_.banksPerChannel));
    } else {
        // Channel from high bits: each 4 GiB region pins to a channel.
        channel = static_cast<std::uint32_t>(
            (addr >> 32) % config_.channels);
        bank = static_cast<std::uint32_t>(
            (line / lines_per_row) % config_.banksPerChannel);
        row = static_cast<std::int64_t>(
            line / (lines_per_row * config_.banksPerChannel));
    }
}

Cycle
HbmModel::serviceOne(const MemRequest &request, Cycle start)
{
    std::uint32_t ch_idx = 0, bank_idx = 0;
    std::int64_t row = 0;
    mapAddr(request.addr, ch_idx, bank_idx, row);
    Channel &ch = channels_[ch_idx];
    Bank &bank = ch.banks[bank_idx];

    // bank.ready is the earliest cycle the bank accepts its next
    // column command; CAS latency is pipelined (it delays the data,
    // not the next command), so back-to-back row hits stream at the
    // burst rate while a row miss pays precharge + activate.
    Cycle cas_issue = std::max(start, bank.ready);
    if (bank.openRow == row) {
        ++counters_.rowHits;
    } else {
        cas_issue += config_.tRP + config_.tRCD;
        ++counters_.rowMisses;
        bank.openRow = row;
    }
    const Cycle burst =
        (request.bytes + config_.bytesPerCycle - 1) / config_.bytesPerCycle;
    const Cycle data_start =
        std::max(cas_issue + config_.tCAS, ch.busFree);
    const Cycle end = data_start + burst;

    ch.busFree = end;
    // Column-to-column gap equals the burst length (tCCD).
    bank.ready = cas_issue + burst;

    counters_.busyCycles += burst;
    channelBytes_[ch_idx] += request.bytes;
    if (request.isWrite) {
        ++counters_.writes;
        counters_.writeBytes += request.bytes;
    } else {
        ++counters_.reads;
        counters_.readBytes += request.bytes;
    }
    return end;
}

Cycle
HbmModel::serviceBatch(std::span<const MemRequest> requests, Cycle start)
{
    Cycle finish = start;
    for (const MemRequest &req : requests)
        finish = std::max(finish, serviceOne(req, start));
    return finish;
}

void
HbmModel::resetTiming()
{
    for (Channel &ch : channels_) {
        ch.busFree = 0;
        for (Bank &bank : ch.banks) {
            bank.ready = 0;
            bank.openRow = -1;
        }
    }
}

} // namespace hygcn
