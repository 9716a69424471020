/**
 * @file
 * In-memory span recorder for the benchmark driver. Spans are placed
 * by the driver around its calls into the simulator's public
 * functions (never inside the library), kept in memory while the
 * workload runs, and written once at exit as Chrome trace-event JSON
 * that opens in Perfetto or chrome://tracing. With tracing off every
 * call is a branch on one flag and records nothing.
 */

#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One closed or open span: name, start, end, and the causing span. */
struct SpanRecord
{
    std::string name;
    /** Extra trace-event args as a JSON object body (may be empty). */
    std::string args;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the enclosing span, -1 at the top level. */
    int parent = -1;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; -1 when off. */
    int open(std::string name, std::string args = {});

    /** Close span @p id (a no-op for -1). Spans close innermost first. */
    void close(int id);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, std::string name, std::string args = {})
        : tracer_(tracer), id_(tracer.open(std::move(name), std::move(args)))
    {}
    ~Span() { tracer_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
