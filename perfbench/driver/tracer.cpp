#include "tracer.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
    if (enabled_)
        spans_.reserve(1024);
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
Tracer::open(std::string name, std::string args)
{
    if (!enabled_)
        return -1;
    SpanRecord span;
    span.name = std::move(name);
    span.args = std::move(args);
    span.parent = open_.empty() ? -1 : open_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(id);
    // Stamp last so the bookkeeping above is outside the span.
    spans_.back().startUs = nowUs();
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    const double end = nowUs();
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("perfbench: spans must close innermost first");
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].endUs = end;
}

namespace {

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file.good())
        return false;
    file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char num[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        if (i)
            file << ",\n";
        file << "{\"name\":\"" << escape(s.name)
             << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
        std::snprintf(num, sizeof(num), ",\"ts\":%.3f,\"dur\":%.3f",
                      s.startUs, s.endUs - s.startUs);
        file << num << ",\"args\":{\"id\":" << i
             << ",\"parent\":" << s.parent;
        if (!s.args.empty())
            file << "," << s.args;
        file << "}}";
    }
    file << "]}\n";
    return file.good();
}

} // namespace perfbench
