/**
 * @file
 * What one benchmark run reports: named metrics with unit and sample
 * count, the attempted/failed ledger, and the final result line.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    size_t samples = 0;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        size_t samples)
    {
        metrics_.push_back({name, value, unit, samples});
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Count `n` attempted operations, `failed` of which failed. */
    void
    attempt(uint64_t n, uint64_t failed = 0)
    {
        attempted_ += n;
        failed_ += failed;
    }
    void fail(uint64_t n = 1) { failed_ += n; }

    /** A correctness check that did not hold (mismatch, bad cycles). */
    void
    incorrect(const std::string &why)
    {
        correct_ = false;
        std::printf("INCORRECT: %s\n", why.c_str());
    }

    bool correct() const { return correct_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Print the metric table, then the result line (last line). */
    void
    print() const
    {
        std::printf("%-30s %14s %-7s %s\n", "metric", "value", "unit",
                    "samples");
        for (const Metric &m : metrics_)
            std::printf("%-30s %14.6g %-7s %zu\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.samples);
        const double fail_pct =
            attempted_ == 0 ? 0 : 100.0 * failed_ / attempted_;
        std::printf("fail_pct %.4f %% (%llu of %llu attempted)\n",
                    fail_pct, static_cast<unsigned long long>(failed_),
                    static_cast<unsigned long long>(attempted_));
        std::string line = "{\"correct\": ";
        line += correct_ ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(attempted_);
        line += ", \"failed\": " + std::to_string(failed_);
        line += ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
            line += (i ? ", \"" : "\"") + metrics_[i].name +
                    "\": {\"value\": " + num + ", \"unit\": \"" +
                    metrics_[i].unit + "\"}";
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    }

  private:
    std::vector<Metric> metrics_;
    bool correct_ = true;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
