#include "mem/dram.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/codegen.hpp"

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

HbmModel::Segment
HbmModel::segmentAt(Addr line) const
{
    const std::uint64_t lines_per_row = config_.rowBytes / kLineBytes;
    Segment seg;
    if (config_.lowBitChannelInterleave) {
        seg.channel = static_cast<std::uint32_t>(line % config_.channels);
        const Addr in_channel = line / config_.channels;
        seg.bank = static_cast<std::uint32_t>(
            (in_channel / lines_per_row) % config_.banksPerChannel);
        seg.row = static_cast<std::int64_t>(
            in_channel / (lines_per_row * config_.banksPerChannel));
        seg.lines = lines_per_row - in_channel % lines_per_row;
    } else {
        // Channel from high bits: each 4 GiB region pins to a channel.
        constexpr Addr kRegionLines = (Addr{1} << 32) / kLineBytes;
        seg.channel = static_cast<std::uint32_t>(
            (line / kRegionLines) % config_.channels);
        seg.bank = static_cast<std::uint32_t>(
            (line / lines_per_row) % config_.banksPerChannel);
        seg.row = static_cast<std::int64_t>(
            line / (lines_per_row * config_.banksPerChannel));
        seg.lines = std::min(lines_per_row - line % lines_per_row,
                             kRegionLines - line % kRegionLines);
    }
    return seg;
}

HYGCN_ALIGN_HOT Cycle
HbmModel::serviceSegment(const Segment &seg, std::uint64_t lines,
                         std::uint32_t bytes, bool is_write, Cycle start)
{
    Channel &ch = channels_[seg.channel];
    Bank &bank = ch.banks[seg.bank];

    // bank.ready is the earliest cycle the bank accepts its next
    // column command; CAS latency is pipelined (it delays the data,
    // not the next command), so back-to-back row hits stream at the
    // burst rate while a row miss pays precharge + activate.
    Cycle cas_issue = std::max(start, bank.ready);
    if (bank.openRow == seg.row) {
        ++counters_.rowHits;
    } else {
        cas_issue += config_.tRP + config_.tRCD;
        ++counters_.rowMisses;
        bank.openRow = seg.row;
    }
    const Cycle burst =
        (bytes + config_.bytesPerCycle - 1) / config_.bytesPerCycle;
    const Cycle data_start =
        std::max(cas_issue + config_.tCAS, ch.busFree);
    // The segment's other lines are row hits that stream at the burst
    // rate: each issues as the bank frees (bank.ready >= start) and its
    // data follows the previous burst (busFree >= cas + tCAS), so they
    // apply in bulk, exactly.
    const Cycle busy = lines * burst;
    ch.busFree = data_start + busy;
    // Column-to-column gap equals the burst length (tCCD).
    bank.ready = cas_issue + busy;

    counters_.rowHits += lines - 1;
    counters_.busyCycles += busy;
    const std::uint64_t total_bytes = lines * bytes;
    channelBytes_[seg.channel] += total_bytes;
    if (is_write) {
        counters_.writes += lines;
        counters_.writeBytes += total_bytes;
    } else {
        counters_.reads += lines;
        counters_.readBytes += total_bytes;
    }
    return ch.busFree;
}

Cycle
HbmModel::serviceOne(const MemRequest &request, Cycle start)
{
    return serviceBatch({&request, 1}, start);
}

HYGCN_ALIGN_HOT Cycle
HbmModel::serviceBatch(std::span<const MemRequest> requests, Cycle start)
{
    // A channel sees every channels-th line of a run under low-bit
    // interleave and every line under high-bit mapping. Channels share
    // no state, so each run is walked one channel at a time, in
    // maximal segments of one (channel, bank, row); every channel
    // still sees its lines in run order.
    const std::uint64_t stride =
        config_.lowBitChannelInterleave ? config_.channels : 1;
    Cycle finish = start;
    for (const MemRequest &req : requests) {
        // Lane j holds the run's lines j, j + stride, j + 2 * stride...
        const std::uint64_t lanes = std::min(req.lines, stride);
        for (std::uint64_t lane = 0; lane < lanes; ++lane) {
            Addr line = req.addr / kLineBytes + lane;
            std::uint64_t left = (req.lines - lane + stride - 1) / stride;
            while (left > 0) {
                const Segment seg = segmentAt(line);
                const std::uint64_t lines = std::min(left, seg.lines);
                finish = std::max(finish,
                                  serviceSegment(seg, lines, req.bytes,
                                                 req.isWrite, start));
                line += lines * stride;
                left -= lines;
            }
        }
    }
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
