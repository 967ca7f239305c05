/**
 * @file
 * Numbers frozen from measurements of the code the benchmark was
 * defined on (4-core AVX2 x86-64 host, gcc 12, Release). Rates and
 * the latency limit are absolute, so a faster or slower program shows
 * as moved latency at the same load, not as a moved load. Expected
 * cycles are simulated, host-independent values.
 */

#ifndef PERFBENCH_FROZEN_H
#define PERFBENCH_FROZEN_H

#include <cstdint>

#include "stats.h"

namespace perfbench {

/** Setup probes per run; setup_s is their median. */
constexpr int kSetupProbes = 5;

/** A served phase is invalid when the generator's p99 lateness is
 *  above this (ms): a fifth of the latency limit. */
constexpr double kLateBoundMs = 5.0;

/** Share of the run's seconds given to each of the `low` and `high`
 *  phases; the ladder takes the rest. */
constexpr double kRatePhaseShare = 0.35;

/** Completions per served phase / ladder step: p99 then has at least
 *  ten samples beyond it. */
constexpr size_t kMinPhaseRequests = kTailBlock;

/** Requests of the unmeasured warm-up phase (caches, page faults). */
constexpr size_t kWarmupRequests = 500;

/** Replies still missing this long after the last due time are
 *  counted as timeouts. */
constexpr double kDrainTimeoutS = 20.0;

/** One served workload's frozen load points. */
struct ServedLoad
{
    double lowRps;      ///< ~40% of measured capacity
    double highRps;     ///< ~80% of measured capacity
    double p99LimitMs;  ///< the latency limit of max_rate_rps
    double ladderBase;  ///< ladder step i is ladderBase * kLadderRatio^i
    int ladderSteps;
    double ladderStart; ///< the climb starts at the last step <= this
};

/** A ladder step lasts at least this long (and kMinPhaseRequests). */
constexpr double kStepSeconds = 2.0;

/** Ladder steps are 5% apart, finer than max_rate_rps's bound. */
constexpr double kLadderRatio = 1.05;

/** Each ladder tops out near 18x its base, far above the measured
 *  capacity (serve_synth ~600, cluster_catalog ~3000-3900 req/s), so a
 *  faster program moves max_rate_rps instead of hitting the top. */
constexpr ServedLoad kServeSynthLoad{190, 380, 25.0, 190, 60, 560};
constexpr ServedLoad kClusterCatalogLoad{600, 1200, 25.0, 600, 60, 2600};

/** cluster_catalog: what ta_pack packs, and the replicas' buffer
 *  bound (4 KiB pages), below the catalog's page count. */
constexpr const char *kCatalogSuites =
    "llama7b-fc,llama7b-attn,llama13b-fc,llama8b-fc,resnet18";
constexpr int kCatalogBufferPages = 1024;

/** suite_llama: engine config of bench_model_throughput (full run). */
constexpr int kSuiteSampleLimit = 64;
constexpr int kSuiteBatch = 8;
constexpr int kSuiteFcBits = 4;
constexpr int kSuiteAttnBits = 8;
/** Passes continue past --seconds until per-layer dispatch has this
 *  many single-layer samples, so their p99 keeps ten beyond it. */
constexpr size_t kMinLayerSamples = 1000;

/** Canonical weight seeds (model_throughput's defaults) and the
 *  per-model block cycles they produce, in allLlamaModels() order. */
constexpr uint64_t kCanonicalFcSeed = 1;
constexpr uint64_t kAttnSeedOffset = 49;
constexpr uint64_t kCanonicalBlockCycles[7] = {
    204150214, 308668996, 503429532, 745340760,
    204150214, 308668996, 217272232};

/** Paper's TA-4bit speedups on FC layers (Fig. 10). */
constexpr double kPaperSpeedupVsOlive = 7.46;
constexpr double kPaperSpeedupVsBitVert = 3.97;

} // namespace perfbench

#endif // PERFBENCH_FROZEN_H
