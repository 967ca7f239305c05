/**
 * @file
 * perfbench: the repository benchmark driver. Runs one workload
 * (suite_llama, serve_synth, cluster_catalog) for --seconds, checks
 * every output, and prints the metric table followed by one JSON
 * result line. --trace 1 gives the per-layer breakdown instead of the
 * end-to-end metrics. See perfbench/README.md.
 */

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "child.h"
#include "kernels/kernel_table.h"
#include "workloads.h"

namespace perfbench {

const std::vector<LayerMetricSpec> &
layerMetricSpecs()
{
    static const std::vector<LayerMetricSpec> specs = {
        {"workloads.gaussian_s", "s"},
        {"workloads.synth_calls", "count"},
        {"quant.quantize_s", "s"},
        {"quant.slice_s", "s"},
        {"core.run_layer_s", "s"},
        {"core.subtiles_executed", "count"},
        {"exec.plan_hits", "count"},
        {"exec.plan_misses", "count"},
        {"exec.plan_hit_ratio", "ratio"},
        {"exec.worker_busy_s", "s"},
        {"exec.worker_idle_pct", "%"},
        {"exec.worker_idle_pct.batched", "%"},
        {"baselines.run_s", "s"},
        {"service.parse_us", "us"},
        {"service.serialize_us", "us"},
        {"service.windows", "count"},
        {"service.window_mean", "count"},
        {"service.max_window", "count"},
        {"service.peak_queue_depth", "count"},
        {"service.rejected", "count"},
        {"service.server_p50_ms", "ms"},
        {"service.server_p99_ms", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.pack_ms_p50", "ms"},
        {"service.exec_ms_p50", "ms"},
        {"service.exec_ms_p99", "ms"},
        {"service.serialize_ms_p50", "ms"},
        {"storage.open_s", "s"},
        {"storage.pin_us_p50", "us"},
        {"storage.pin_us_p99", "us"},
        {"storage.buffer_hit_ratio", "ratio"},
        {"storage.buffer_evictions", "count"},
        {"storage.bytes_mapped", "B"},
        {"cluster.route_ms_p50", "ms"},
        {"cluster.route_ms_p99", "ms"},
        {"cluster.forwarded", "count"},
        {"cluster.retried", "count"},
        {"cluster.failed", "count"},
        {"cluster.timed_out", "count"},
        {"cluster.shed", "count"},
        {"client.late_ms_p99", "ms"},
        {"client.backlog_max", "count"},
        {"unattributed_pct", "%"},
        {"trace_overhead_pct", "%"},
    };
    return specs;
}

void
addLayerMetrics(Report &report, const std::vector<Metric> &values)
{
    for (const LayerMetricSpec &s : layerMetricSpecs()) {
        Metric m{s.name, 0, s.unit, 0};
        for (const Metric &v : values)
            if (v.name == s.name)
                m = v;
        report.add(m.name, m.value, s.unit, m.samples);
    }
}

void
setupSeconds(const std::vector<std::string> &argv,
             const std::string &log_path, int probes, Report &report)
{
    std::vector<double> s;
    for (int i = 0; i < probes; ++i) {
        ServedProcess p;
        std::string err;
        const double t0 = now();
        if (!p.start(argv, log_path, &err) || p.control("ping", 60).empty()) {
            report.incorrect("setup probe failed: " + argv[0] + " " + err);
            return;
        }
        s.push_back(now() - t0);
    }
    report.add("setup_s", median(s), "s", s.size());
}

void
addLatencyMetrics(Report &report, const std::string &phase,
                  const std::vector<double> &typical_ms,
                  const std::vector<double> &latency_ms)
{
    const Percentile p50 = percentile(typical_ms, 0.5);
    const Tail p99 = blockedTail(latency_ms, 0.99);
    report.add("p50_ms." + phase, p50.value, "ms", p50.samples);
    report.add("p99_ms." + phase, p99.value, "ms", p99.samples);
    std::printf("p99_ms.%s: median over %zu block(s) of the p99 of %zu "
                "consecutive samples (%zu samples)\n",
                phase.c_str(), p99.blocks, kTailBlock, p99.samples);
}

} // namespace perfbench

using namespace perfbench;

namespace {

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload suite_llama|serve_synth|"
                 "cluster_catalog --seed N --seconds S --trace 0|1\n"
                 "                 --bin-dir DIR --work-dir DIR "
                 "[--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    ctx.self = argv[0];
    ctx.nproc = usableCpus();
    std::string commit = "unknown", probe;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i], v = argv[i + 1];
        if (a == "--workload")
            ctx.workload = v;
        else if (a == "--seed")
            ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            ctx.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            ctx.trace = v == "1";
        else if (a == "--bin-dir")
            ctx.binDir = v;
        else if (a == "--work-dir")
            ctx.workDir = v;
        else if (a == "--commit")
            commit = v;
        else if (a == "--probe")
            probe = v;
        else
            return usage();
    }
    if (probe == "suite_llama")
        return suiteSetupProbe(ctx.nproc);
    const bool suite = ctx.workload == "suite_llama";
    if (!suite && ctx.workload != "serve_synth" &&
        ctx.workload != "cluster_catalog")
        return usage();
    if (ctx.binDir.empty() || ctx.workDir.empty() || ctx.seconds <= 0)
        return usage();

    std::printf("stamp: commit=%s nproc=%d cpu=\"%s\" kernels=%s "
                "compiler=\"%s\" build=%s workload=%s seed=%llu "
                "seconds=%g trace=%d\n",
                commit.c_str(), ctx.nproc, cpuModel().c_str(),
                ta::kernelArch(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? 1 : 0);
    becomeSubreaper();
    Report report;
    if (suite) {
        runSuiteLlama(ctx, report);
        if (!ctx.trace)
            report.add("peak_rss_mb", peakRssMb(getpid()), "MB", 1);
    } else {
        runServed(ctx, report);
    }
    reapAll();
    report.print();
    return report.correct() && report.failed() == 0 ? 0 : 1;
}
