/**
 * @file
 * suite_llama: one caller in a closed loop runs every LLaMA config's FC
 * suite (4-bit) and attention suite (8-bit) through runSuite at
 * threads = nproc, on a fresh accelerator per pass. A pass runs the 63
 * layers one at a time (each layer timed by its own runSuite call,
 * which runs exactly the work runSuite's per-layer loop does), then
 * again in batch windows of 8, then the Olive and BitVert baselines on
 * the FC suites.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "baselines/baseline.h"
#include "child.h"
#include "frozen.h"
#include "workloads.h"
#include "workloads/generators.h"
#include "workloads/llama.h"
#include "workloads/suite_runner.h"

using namespace ta;

namespace perfbench {

namespace {

struct Model
{
    LlamaConfig cfg;
    WorkloadSuite fc, attn;
};

std::vector<Model>
allModels()
{
    std::vector<Model> out;
    for (const LlamaConfig &c : allLlamaModels())
        out.push_back({c, llamaFcLayers(c), llamaAttentionLayers(c)});
    return out;
}

TransArrayAccelerator::Config
suiteConfig(int nproc)
{
    TransArrayAccelerator::Config tc;
    tc.sampleLimit = kSuiteSampleLimit;
    tc.threads = nproc;
    return tc;
}

/** One mode of one pass. */
struct PassRun
{
    double wallS = 0;
    /** Per-layer dispatch: one entry per layer. Batched: one entry per
     *  runSuite call, i.e. per window, since every LLaMA suite (7 FC or
     *  2 attention layers) fits in one window of 8. */
    std::vector<double> sampleMs;
    std::vector<uint64_t> blockCycles; ///< per model: fc + attn
    std::vector<uint64_t> fcCycles;    ///< per model
    PlanCache::Counters cache;
    double busyS = 0;
};

uint64_t
executedSubTiles(const LayerRun &r)
{
    return r.exec.get("exec.sampledSubTiles");
}

/** `batch` == 1: one runSuite call per layer; otherwise one call per
 *  suite with windows of `batch`. */
PassRun
runPass(const std::vector<Model> &models, uint64_t fc_seed, int nproc,
        size_t batch)
{
    const TransArrayAccelerator acc(suiteConfig(nproc));
    PassRun p;
    const auto run = [&](const WorkloadSuite &suite, int bits,
                         uint64_t seed) {
        uint64_t cycles = 0;
        if (batch == 1) {
            for (size_t i = 0; i < suite.layers.size(); ++i) {
                const WorkloadSuite one{suite.name, {suite.layers[i]}};
                const double t0 = now();
                const SuiteRunResult r =
                    runSuite(acc, one, bits, layerSeed(seed, i), 1);
                p.sampleMs.push_back((now() - t0) * 1e3);
                cycles += r.total.cycles;
            }
        } else {
            const double t0 = now();
            const SuiteRunResult r = runSuite(acc, suite, bits, seed, batch);
            p.sampleMs.push_back((now() - t0) * 1e3);
            cycles = r.total.cycles;
        }
        return cycles;
    };
    const PlanCache::Counters c0 = acc.planCacheCounters();
    uint64_t busy0 = 0;
    for (uint64_t b : acc.shardBusyNanos())
        busy0 += b;
    const double t0 = now();
    for (const Model &m : models) {
        const uint64_t fc = run(m.fc, kSuiteFcBits, fc_seed);
        const uint64_t attn =
            run(m.attn, kSuiteAttnBits, fc_seed + kAttnSeedOffset);
        p.fcCycles.push_back(fc);
        p.blockCycles.push_back(fc + attn);
    }
    p.wallS = now() - t0;
    const PlanCache::Counters c1 = acc.planCacheCounters();
    p.cache = {c1.hits - c0.hits, c1.misses - c0.misses,
               c1.evictions - c0.evictions};
    uint64_t busy1 = 0;
    for (uint64_t b : acc.shardBusyNanos())
        busy1 += b;
    p.busyS = (busy1 - busy0) * 1e-9;
    return p;
}

/** FC baseline cycles per model, and the time they took. */
struct Baselines
{
    std::vector<uint64_t> olive, bitvert;
    double wallS = 0;
};

Baselines
runBaselines(const std::vector<Model> &models, ParallelExecutor &pool)
{
    static const auto olive = makeBaseline("Olive");
    static const auto bitvert = makeBaseline("BitVert");
    Baselines b;
    const double t0 = now();
    for (const Model &m : models) {
        b.olive.push_back(
            runBaselineSuite(*olive, m.fc, 8, 8, 0.5, &pool).total.cycles);
        b.bitvert.push_back(
            runBaselineSuite(*bitvert, m.fc, 8, 8, 0.5, &pool).total.cycles);
    }
    b.wallS = now() - t0;
    return b;
}

double
geomeanRatio(const std::vector<uint64_t> &base,
             const std::vector<uint64_t> &ta)
{
    double acc = 0;
    for (size_t i = 0; i < ta.size(); ++i)
        acc += std::log(static_cast<double>(base[i]) / ta[i]);
    return std::exp(acc / ta.size());
}

void
printSimulated(const char *vs, double sim, double paper)
{
    std::printf("simulated TA-4bit vs %-8s %.2fx  (paper %.2fx, relative "
                "error %+.1f%%) -- simulated cycles, not gated\n",
                vs, sim, paper, 100.0 * (sim - paper) / paper);
}

/** Compare per-model block cycles with `want`; a mismatch is a failed
 *  operation and makes the run incorrect. */
void
checkCycles(const std::vector<Model> &models,
            const std::vector<uint64_t> &got, const uint64_t *want,
            const char *what, Report &report)
{
    bool ok = true;
    for (size_t i = 0; i < models.size(); ++i)
        if (got[i] != want[i]) {
            ok = false;
            report.incorrect(std::string(what) + ": " + models[i].cfg.name +
                             " block cycles " + std::to_string(got[i]) +
                             " != " + std::to_string(want[i]));
        }
    if (!ok)
        report.fail();
}

/** Traced replay of one pass: every layer through the public calls
 *  runShape makes, each call its own span from just before the call to
 *  just after it; then the baselines. Work between calls (destructors,
 *  loop overhead) falls outside every span and shows as unattributed. */
void
tracedReplay(const std::vector<Model> &models, uint64_t fc_seed, int nproc,
             ParallelExecutor &pool, std::vector<Metric> &out,
             double untraced_wall)
{
    const TransArrayAccelerator acc(suiteConfig(nproc));
    std::vector<Span> spans;
    double synth = 0, quant = 0, slice = 0, core = 0;
    uint64_t calls = 0, subtiles = 0;
    const auto span = [&](double t0, double &sum) {
        const double t1 = now();
        spans.push_back({t0, t1, -1});
        sum += t1 - t0;
    };
    const double wall0 = now();
    const auto replay = [&](const WorkloadSuite &suite, int bits,
                            uint64_t seed) {
        for (size_t i = 0; i < suite.layers.size(); ++i) {
            const GemmShape &s = suite.layers[i].shape;
            const size_t nr = std::min<size_t>(s.n, kDefaultReprRows);
            const size_t kr = std::min<size_t>(s.k, kDefaultReprCols);
            // Intermediates die where realLikeSlicedWeights frees them,
            // so the replay allocates as runShape does.
            double t = now();
            MatF w = gaussianWeights(nr, kr, layerSeed(seed, i));
            span(t, synth);
            t = now();
            MatI32 values = GroupQuantizer(bits, 128).quantize(w).values;
            span(t, quant);
            w = MatF();
            ++calls;
            t = now();
            const SlicedMatrix sl = bitSlice(values, bits);
            span(t, slice);
            values = MatI32();
            t = now();
            const LayerRun r = acc.runLayer(sl, s.m);
            span(t, core);
            subtiles += executedSubTiles(r);
        }
    };
    for (const Model &m : models) {
        replay(m.fc, kSuiteFcBits, fc_seed);
        replay(m.attn, kSuiteAttnBits, fc_seed + kAttnSeedOffset);
    }
    double base = 0;
    const double tb = now();
    runBaselines(models, pool);
    span(tb, base);
    const double wall = now() - wall0;

    out.push_back({"workloads.gaussian_s", synth, "s", calls});
    out.push_back({"workloads.synth_calls", double(calls), "count", 1});
    out.push_back({"quant.quantize_s", quant, "s", calls});
    out.push_back({"quant.slice_s", slice, "s", calls});
    out.push_back({"core.run_layer_s", core, "s", calls});
    out.push_back({"core.subtiles_executed", double(subtiles), "count", 1});
    out.push_back({"baselines.run_s", base, "s", 1});
    out.push_back({"unattributed_pct", unattributedPct(wall, spans), "%",
                   spans.size()});
    out.push_back({"trace_overhead_pct",
                   100.0 * (wall - untraced_wall) / untraced_wall, "%", 1});
    std::printf("traced replay: %.3f s over %zu spans, untraced pass "
                "%.3f s\n",
                wall, spans.size(), untraced_wall);
}

} // namespace

int
suiteSetupProbe(int nproc)
{
    // "Engines built": the executor-backed accelerator and the baseline
    // models a pass needs.
    const TransArrayAccelerator acc(suiteConfig(nproc));
    ParallelExecutor pool(nproc);
    const auto olive = makeBaseline("Olive");
    const auto bitvert = makeBaseline("BitVert");
    std::string line;
    while (std::getline(std::cin, line)) {
        const size_t c = line.find(',');
        const std::string id = line.substr(6, c - 6);
        if (line.find("\"ping\"") != std::string::npos)
            std::cout << "{\"id\":" << id << ",\"ok\":1,\"pong\":1}"
                      << std::endl;
        else if (line.find("\"shutdown\"") != std::string::npos) {
            std::cout << "{\"id\":" << id << ",\"ok\":1,\"shutdown\":1}"
                      << std::endl;
            break;
        }
    }
    return acc.threads() > 0 ? 0 : 1;
}

void
runSuiteLlama(const RunContext &ctx, Report &report)
{
    const std::vector<Model> models = allModels();
    size_t layers = 0;
    for (const Model &m : models)
        layers += m.fc.layers.size() + m.attn.layers.size();
    const uint64_t fc_seed = ctx.seed;
    ParallelExecutor pool(ctx.nproc);

    if (!ctx.trace)
        setupSeconds({ctx.self, "--probe", "suite_llama"},
                     ctx.workDir + "/probe.log", kSetupProbes, report);

    // Simulated statistics must not depend on the host: the canonical
    // seed's block cycles are frozen.
    if (fc_seed != kCanonicalFcSeed) {
        const PassRun canon =
            runPass(models, kCanonicalFcSeed, ctx.nproc, kSuiteBatch);
        report.attempt(layers);
        checkCycles(models, canon.blockCycles, kCanonicalBlockCycles,
                    "canonical seed", report);
    }

    // Per-layer dispatch: every layer's latency, and per pass the mean.
    // Batched: per pass the mean and the slowest window latency.
    std::vector<double> low_ms, low_mean, high_mean, high_max;
    size_t windows = 0;
    std::vector<double> wall_s, batched_s, rates;
    std::vector<uint64_t> first_cycles, first_fc;
    Baselines base;
    const double t_end = now() + ctx.seconds;
    size_t passes = 0;
    std::vector<Metric> layer_metrics;
    do {
        const PassRun one = runPass(models, fc_seed, ctx.nproc, 1);
        const PassRun win = runPass(models, fc_seed, ctx.nproc, kSuiteBatch);
        base = runBaselines(models, pool);
        ++passes;
        report.attempt(2 * layers);
        if (first_cycles.empty()) {
            first_cycles = one.blockCycles;
            first_fc = one.fcCycles;
        }
        checkCycles(models, one.blockCycles, first_cycles.data(),
                    "per-layer pass", report);
        checkCycles(models, win.blockCycles, first_cycles.data(),
                    "batched pass", report);
        if (fc_seed == kCanonicalFcSeed)
            checkCycles(models, one.blockCycles, kCanonicalBlockCycles,
                        "canonical seed", report);
        low_ms.insert(low_ms.end(), one.sampleMs.begin(),
                      one.sampleMs.end());
        low_mean.push_back(one.wallS * 1e3 / layers);
        windows += win.sampleMs.size();
        high_mean.push_back(win.wallS * 1e3 / win.sampleMs.size());
        high_max.push_back(
            *std::max_element(win.sampleMs.begin(), win.sampleMs.end()));
        wall_s.push_back(one.wallS + base.wallS);
        batched_s.push_back(win.wallS);
        rates.push_back(layers / win.wallS);
        if (ctx.trace) {
            const double idle =
                100.0 * (1 - one.busyS / (ctx.nproc * one.wallS));
            const double idle_b =
                100.0 * (1 - win.busyS / (ctx.nproc * win.wallS));
            layer_metrics = {
                {"exec.plan_hits", double(one.cache.hits), "count", 1},
                {"exec.plan_misses", double(one.cache.misses), "count", 1},
                {"exec.plan_hit_ratio", one.cache.hitRate(), "ratio", 1},
                {"exec.worker_busy_s", one.busyS, "s", 1},
                {"exec.worker_idle_pct", idle, "%", 1},
                {"exec.worker_idle_pct.batched", idle_b, "%", 1}};
            tracedReplay(models, fc_seed, ctx.nproc, pool, layer_metrics,
                         one.wallS + base.wallS);
            break;
        }
    } while (now() < t_end || low_ms.size() < kMinLayerSamples);

    std::printf("suite_llama: %zu pass(es) of %zu layers, %zu models, "
                "threads %d, seed %llu\n",
                passes, layers, models.size(), ctx.nproc,
                static_cast<unsigned long long>(fc_seed));
    std::printf("suite_wall_s %.4f s (median of %zu, per-layer dispatch "
                "+ baselines)\n",
                median(wall_s), wall_s.size());
    std::printf("suite_batched_wall_s %.4f s (median of %zu, windows of "
                "%d)\n",
                median(batched_s), batched_s.size(), kSuiteBatch);
    printSimulated("Olive", geomeanRatio(base.olive, first_fc),
                   kPaperSpeedupVsOlive);
    printSimulated("BitVert", geomeanRatio(base.bitvert, first_fc),
                   kPaperSpeedupVsBitVert);
    for (size_t i = 0; i < models.size(); ++i)
        std::printf("  %-12s block cycles %llu\n", models[i].cfg.name.c_str(),
                    static_cast<unsigned long long>(first_cycles[i]));

    if (ctx.trace) {
        addLayerMetrics(report, layer_metrics);
        return;
    }
    // Per-layer dispatch runs synthesis on one thread, whose speed
    // flips with the host's load between two levels about 40% apart;
    // the median of single layers jumps between them, so p50_ms.low is
    // the median over passes of the mean per-layer latency.
    addLatencyMetrics(report, "low", low_mean, low_ms);
    // A batched layer completes with its window, and a pass has only
    // 14 windows: too few for a p99, so the tail is each pass's slowest
    // window (the largest model's FC suite), the median over passes.
    report.add("p50_ms.high", median(high_mean), "ms", high_mean.size());
    report.add("p99_ms.high", median(high_max), "ms", windows);
    std::printf("p50_ms.high: median over %zu passes of the mean window "
                "latency; p99_ms.high: median over %zu passes of the "
                "slowest window (%zu windows)\n",
                high_mean.size(), high_max.size(), windows);
    report.add("max_rate_rps", median(rates), "req/s", rates.size());
}

} // namespace perfbench
