/**
 * @file
 * The three workloads. Each fills a Report with every end-to-end
 * metric (untraced run) or every per-layer metric (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"

namespace perfbench {

struct RunContext
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string binDir;   ///< where ta_serve, ta_router, ... live
    std::string workDir;  ///< scratch space inside the checkout
    std::string self;     ///< this executable (setup probe)
    int nproc = 1;
};

/** Every per-layer metric name with its unit, in report order. */
struct LayerMetricSpec
{
    const char *name;
    const char *unit;
};
const std::vector<LayerMetricSpec> &layerMetricSpecs();

/**
 * Adds every per-layer metric to `report`, taking values from
 * `values` by name and 0 for layers the workload does not exercise.
 */
void addLayerMetrics(Report &report,
                     const std::vector<Metric> &values);

/** Adds setup_s: the median seconds from spawning `argv` to its first
 *  answered ping, over `probes` spawns. */
void setupSeconds(const std::vector<std::string> &argv,
                  const std::string &log_path, int probes, Report &report);

/** Adds p50_ms.<phase>, the median of `typical_ms`, and p99_ms.<phase>,
 *  the blocked p99 of `latency_ms`. */
void addLatencyMetrics(Report &report, const std::string &phase,
                       const std::vector<double> &typical_ms,
                       const std::vector<double> &latency_ms);

void runSuiteLlama(const RunContext &ctx, Report &report);
void runServed(const RunContext &ctx, Report &report);

/** `perfbench --probe suite_llama`: build the suite's engines, then
 *  answer ping/shutdown on stdin/stdout. */
int suiteSetupProbe(int nproc);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
