/**
 * @file
 * serve_synth and cluster_catalog: one client process drives the
 * shipped server (ta_serve, or ta_router over ta_serve replicas) over
 * its stdio connection with an open loop of seeded Poisson arrivals,
 * timing every request from its due time. Phases: `low` and `high` at
 * frozen rates, then the max-rate ladder. Every answered request is
 * byte-compared with the in-process serial oracle afterwards.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "child.h"
#include "common/rng.h"
#include "frozen.h"
#include "oracle.h"
#include "service/protocol.h"
#include "storage/buffer_manager.h"
#include "workloads.h"
#include "workloads/generators.h"

using namespace ta;

namespace perfbench {

namespace {

using StatsMap = std::map<std::string, std::string>;

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The workload under test: how to start it and what to send it. */
struct Target
{
    bool cluster = false;
    ServedLoad load{};
    int engineThreads = 1;
    std::string catalogDir;
    std::vector<const CatalogEntry *> planes; ///< Zipf rank order
    std::vector<std::string> planeModel;      ///< model of each plane
    std::vector<double> zipfCdf;

    std::vector<std::string>
    argv(const RunContext &ctx, const std::string &trace_out) const
    {
        std::vector<std::string> a;
        if (cluster)
            a = {ctx.binDir + "/ta_router", "--replicas", "2", "--threads",
                 "1", "--policy", "affinity", "--catalog", catalogDir,
                 "--buffer-pages", std::to_string(kCatalogBufferPages)};
        else
            a = {ctx.binDir + "/ta_serve", "--threads", "2", "--sessions",
                 "2"};
        if (!trace_out.empty()) {
            a.push_back("--trace-out");
            a.push_back(trace_out);
        }
        return a;
    }
};

/** Quick-mix shapes (FC, attention, CNN im2col), unique seeds. */
ServiceRequest
synthRequest(Rng &rng)
{
    ServiceRequest r;
    r.samples = 16;
    const int suite = static_cast<int>(rng.uniformInt(0, 2));
    if (suite == 0)
        r.shape = {uint64_t(128 * rng.uniformInt(1, 4)),
                   uint64_t(128 * rng.uniformInt(1, 4)),
                   uint64_t(64 * rng.uniformInt(1, 4))};
    else if (suite == 1)
        r.shape = {uint64_t(64 * rng.uniformInt(2, 4)), 64, 128};
    else
        r.shape = {64, uint64_t(64 * rng.uniformInt(2, 9)), 196};
    const int pick = static_cast<int>(rng.uniformInt(0, 2));
    r.wbits = pick == 0 ? 8 : pick == 1 ? 6 : 4;
    r.seed = (rng.next() >> 24) | 1;
    return r;
}

/** A Zipf-ranked catalog plane, served by model name. */
ServiceRequest
catalogRequest(Rng &rng, const Target &t)
{
    const double u = rng.uniformDouble();
    size_t rank = static_cast<size_t>(
        std::lower_bound(t.zipfCdf.begin(), t.zipfCdf.end(), u) -
        t.zipfCdf.begin());
    rank = std::min(rank, t.planes.size() - 1);
    const CatalogEntry &e = *t.planes[rank];
    ServiceRequest r;
    r.samples = 16;
    r.model = t.planeModel[rank];
    r.shape = {e.n, e.k, e.m};
    r.wbits = e.wbits;
    r.seed = e.seed;
    r.maxdist = 3 + static_cast<int>(rng.uniformInt(0, 2));
    return r;
}

std::vector<ServiceRequest>
makeRequests(const Target &t, uint64_t seed, uint64_t salt, size_t n)
{
    Rng rng(mix(seed, salt));
    std::vector<ServiceRequest> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        ServiceRequest r = t.cluster ? catalogRequest(rng, t)
                                     : synthRequest(rng);
        r.useStatic = rng.bernoulli(0.125);
        r.priority = static_cast<int>(rng.uniformInt(0, kMaxPriority));
        out.push_back(r);
    }
    return out;
}

StatsMap
parseStats(const std::string &line)
{
    std::vector<std::pair<std::string, std::string>> kv;
    std::string err;
    StatsMap m;
    if (parseJsonFlat(line, kv, err))
        for (auto &p : kv)
            m[p.first] = p.second;
    return m;
}

double
num(const StatsMap &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0 : std::strtod(it->second.c_str(), nullptr);
}

double
delta(const StatsMap &a, const StatsMap &b, const std::string &key)
{
    return num(b, key) - num(a, key);
}

/** Percentile `q` of the service-latency histogram delta a -> b,
 *  linearly interpolated inside the power-of-two bucket. */
double
histPercentile(const StatsMap &a, const StatsMap &b, double q)
{
    std::vector<std::pair<double, double>> edges; // (edge ms, cumulative)
    for (double e = 1; e <= 8192; e *= 2)
        edges.push_back(
            {e, delta(a, b, "service_ms_le_" + std::to_string(int(e)))});
    const double total = delta(a, b, "service_ms_le_inf");
    if (total <= 0)
        return 0;
    const double want = q * total;
    double lo_edge = 0, lo_count = 0;
    for (const auto &[edge, count] : edges) {
        if (count >= want) {
            const double span = count - lo_count;
            return span <= 0 ? edge
                             : lo_edge + (edge - lo_edge) *
                                             (want - lo_count) / span;
        }
        lo_edge = edge;
        lo_count = count;
    }
    return lo_edge;
}

/** One open-loop phase at a fixed rate. */
struct Phase
{
    Phase(std::string n, double r, uint64_t s, std::vector<ServiceRequest> q)
        : name(std::move(n)), rate(r), salt(s), requests(std::move(q))
    {}

    std::string name;
    double rate = 0;
    uint64_t salt = 0; ///< seeds the requests and the arrivals
    std::vector<ServiceRequest> requests;

    std::vector<double> latencyMs; ///< answered ok, from due time
    std::vector<double> lateMs;    ///< send - due
    std::vector<double> outstanding;
    std::vector<std::string> responses;
    uint64_t errors = 0, refused = 0, timeouts = 0;
    double achievedRps = 0;
    bool late = false, backlog = false;
    StatsMap before, after;

    uint64_t failures() const { return errors + refused + timeouts; }
    bool
    meets(double limit_ms) const
    {
        return failures() == 0 && !late && !backlog &&
               blockedTail(latencyMs, 0.99).value <= limit_ms;
    }
};

class Client
{
  public:
    explicit Client(ServedProcess &server) : server_(server) {}

    void
    run(Phase &ph, uint64_t seed, bool traced)
    {
        ph.before = parseStats(server_.control("stats", 30));
        Rng arrivals(mix(seed, ph.salt ^ 0xa5a5));
        const size_t n = ph.requests.size();
        std::vector<std::string> lines(n);
        std::vector<double> due(n);
        double t = 0;
        for (size_t i = 0; i < n; ++i) {
            ph.requests[i].id = nextId_++;
            if (traced)
                ph.requests[i].traceId = ph.requests[i].id;
            lines[i] = serializeRequest(ph.requests[i]);
            t += -std::log(1.0 - arrivals.uniformDouble()) / ph.rate;
            due[i] = t;
        }
        const uint64_t base = server_.received();
        const double t0 = now() + 0.005;
        ph.lateMs.resize(n);
        ph.outstanding.resize(n);
        for (size_t i = 0; i < n; ++i) {
            const double at = t0 + due[i];
            // Spin rather than sleep: on a loaded VM a sleeping thread
            // can wake milliseconds late, which would read as server
            // latency and invalidate the phase.
            while (now() < at)
                std::this_thread::yield();
            const double sent = now();
            ph.lateMs[i] = (sent - at) * 1e3;
            ph.outstanding[i] = double(i) - double(server_.received() - base);
            server_.send(lines[i]);
        }
        server_.waitReceived(base + n, t0 + due.back() + kDrainTimeoutS);
        auto replies = server_.takeReplies();
        double last = t0;
        ph.responses.assign(n, "");
        for (size_t i = 0; i < n; ++i) {
            const auto it = replies.find(ph.requests[i].id);
            if (it == replies.end()) {
                ++ph.timeouts;
                continue;
            }
            const std::string &line = it->second.line;
            ph.responses[i] = line;
            if (isOverloadedLine(line) || isDeadlineUnmeetableLine(line)) {
                ++ph.refused;
            } else if (line.find("\"ok\":1") == std::string::npos) {
                ++ph.errors;
            } else {
                ph.latencyMs.push_back((it->second.at - (t0 + due[i])) * 1e3);
                last = std::max(last, it->second.at);
            }
        }
        ph.achievedRps = ph.latencyMs.size() / std::max(1e-9, last - t0);
        ph.late = generatorLate(ph.lateMs, kLateBoundMs);
        ph.backlog = growingBacklog(ph.outstanding);
        ph.after = parseStats(server_.control("stats", 30));
        std::printf(
            "  phase %-12s %7.1f req/s offered, %7.1f served: p50 %.3f ms, "
            "p99 %.3f ms (%zu samples), late p99 %.3f ms, backlog max "
            "%.0f%s%s, %llu failed\n",
            ph.name.c_str(), ph.rate, ph.achievedRps,
            percentile(ph.latencyMs, 0.5).value,
            blockedTail(ph.latencyMs, 0.99).value, ph.latencyMs.size(),
            blockedTail(ph.lateMs, 0.99).value,
            *std::max_element(ph.outstanding.begin(), ph.outstanding.end()),
            ph.backlog ? " GROWING" : "", ph.late ? " GENERATOR-LATE" : "",
            static_cast<unsigned long long>(ph.failures()));
    }

  private:
    ServedProcess &server_;
    uint64_t nextId_ = 1;
};

double
serverRssMb(const ServedProcess &server)
{
    double mb = peakRssMb(server.pid());
    for (pid_t c : childrenOf(server.pid()))
        mb += peakRssMb(c);
    return mb;
}

/** Requests of a phase lasting `seconds` at `rate`, at least
 *  kMinPhaseRequests. */
size_t
phaseCount(double rate, double seconds)
{
    return std::max(kMinPhaseRequests,
                    static_cast<size_t>(rate * seconds));
}

/** Collect every phase's answered requests for the oracle. */
void
verifyPhases(const std::vector<std::unique_ptr<Phase>> &phases,
             int threads, Report &report)
{
    std::vector<Served> served;
    for (const auto &ph : phases)
        for (size_t i = 0; i < ph->requests.size(); ++i)
            served.push_back({ph->requests[i], ph->responses[i]});
    // The oracle compares untraced wire requests: the trace id is never
    // echoed, so clear it before rebuilding the expected line.
    for (Served &s : served)
        s.request.traceId = 0;
    std::string first;
    const double t0 = now();
    const uint64_t bad = verifyResponses(served, threads, &first);
    std::printf("oracle: %zu responses byte-compared in %.2f s, %llu "
                "mismatch(es)\n",
                served.size(), now() - t0,
                static_cast<unsigned long long>(bad));
    if (bad != 0) {
        report.fail(bad);
        report.incorrect("oracle mismatch: " + first);
    }
}

/** Per trace id: span name -> summed ms. */
using TraceSums = std::map<std::string, std::map<std::string, double>>;

/** Parse `"key":"value"` or `"key":number` from one event line. */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const size_t p = line.find(pat);
    if (p == std::string::npos)
        return "";
    size_t s = p + pat.size();
    if (line[s] == '"') {
        const size_t e = line.find('"', s + 1);
        return line.substr(s + 1, e - s - 1);
    }
    size_t e = s;
    while (e < line.size() && line[e] != ',' && line[e] != '}')
        ++e;
    return line.substr(s, e - s);
}

TraceSums
readMergedTrace(const std::string &path)
{
    TraceSums t;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const std::string trace = field(line, "trace");
        if (trace.empty())
            continue;
        t[trace][field(line, "name")] +=
            std::strtod(field(line, "dur").c_str(), nullptr) / 1e3;
    }
    return t;
}

double
tracePercentile(const TraceSums &t, const std::string &span, double q)
{
    std::vector<double> v;
    for (const auto &kv : t) {
        const auto it = kv.second.find(span);
        if (it != kv.second.end())
            v.push_back(it->second);
    }
    return percentile(v, q).value;
}

/** Replay requests in-process through the calls runShape makes, each
 *  call its own span from just before the call to just after it:
 *  parse, synthesize | pin, quantize, slice, run, serialize. Engines
 *  are built before the replay; work between calls (engine and plane
 *  lookup, destructors) falls outside every span and shows as
 *  unattributed. */
void
replayLayers(const Target &t, const std::vector<ServiceRequest> &reqs,
             BufferManager *bm, std::vector<Metric> &out, Report &report)
{
    std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>> engines;
    for (const ServiceRequest &wire : reqs) {
        auto &eng = engines[engineKeyOf(wire)];
        if (!eng)
            eng = std::make_unique<TransArrayAccelerator>(
                engineConfig(engineKeyOf(wire), t.engineThreads));
    }
    std::vector<Span> spans;
    double parse = 0, synth = 0, quant = 0, slice = 0, core = 0, ser = 0;
    std::vector<double> pin_us;
    uint64_t synth_calls = 0, subtiles = 0;
    const auto span = [&](double t0, double &sum) {
        const double t1 = now();
        spans.push_back({t0, t1, -1});
        sum += t1 - t0;
    };
    const double wall0 = now();
    for (const ServiceRequest &wire : reqs) {
        const std::string line = serializeRequest(wire);
        ServiceRequest req;
        std::string err;
        double ts = now();
        const bool parsed = parseRequestLine(line, req, err);
        span(ts, parse);
        if (!parsed) {
            report.incorrect("replay: " + err);
            return;
        }
        const TransArrayAccelerator &eng = *engines.at(engineKeyOf(req));
        LayerRun run;
        if (!req.model.empty() && bm != nullptr) {
            const CatalogEntry *e = bm->findEntry(
                req.model, req.seed, req.wbits,
                std::min<uint64_t>(req.shape.n, kDefaultReprRows),
                std::min<uint64_t>(req.shape.k, kDefaultReprCols));
            if (e == nullptr) {
                report.incorrect("replay: no catalog plane for " +
                                 req.model);
                return;
            }
            std::string perr;
            double pin_s = 0;
            ts = now();
            BufferManager::Pin pin = bm->pin(*e, &perr);
            span(ts, pin_s);
            if (!pin.ok()) {
                report.incorrect("replay: cannot pin " + req.model + " " +
                                 perr);
                return;
            }
            pin_us.push_back(pin_s * 1e6);
            ts = now();
            run = eng.runLayerView(pin.view(), req.shape.m);
            span(ts, core);
        } else {
            const uint64_t nr =
                std::min<uint64_t>(req.shape.n, kDefaultReprRows);
            const uint64_t kr =
                std::min<uint64_t>(req.shape.k, kDefaultReprCols);
            ts = now();
            MatF w = gaussianWeights(nr, kr, req.seed);
            span(ts, synth);
            ts = now();
            MatI32 values = GroupQuantizer(req.wbits, 128).quantize(w).values;
            span(ts, quant);
            w = MatF();
            ++synth_calls;
            ts = now();
            const SlicedMatrix s = bitSlice(values, req.wbits);
            span(ts, slice);
            values = MatI32();
            ts = now();
            run = eng.runLayer(s, req.shape.m);
            span(ts, core);
        }
        subtiles += run.exec.get("exec.sampledSubTiles");
        ts = now();
        const std::string resp = serializeResponse(req, run);
        span(ts, ser);
    }
    const double wall = now() - wall0;
    double pins = 0;
    for (double p : pin_us)
        pins += p * 1e-6;
    double busy = 0;
    int threads = 0;
    for (const auto &kv : engines) {
        for (uint64_t b : kv.second->shardBusyNanos())
            busy += b * 1e-9;
        threads = kv.second->threads();
    }
    const size_t n = reqs.size();
    out.push_back({"workloads.gaussian_s", synth, "s", synth_calls});
    out.push_back({"workloads.synth_calls", double(synth_calls), "count", 1});
    out.push_back({"quant.quantize_s", quant, "s", synth_calls});
    out.push_back({"quant.slice_s", slice, "s", synth_calls});
    out.push_back({"core.run_layer_s", core, "s", n});
    out.push_back({"core.subtiles_executed", double(subtiles), "count", 1});
    out.push_back({"exec.worker_busy_s", busy, "s", engines.size()});
    out.push_back({"exec.worker_idle_pct",
                   100.0 * (1 - busy / (std::max(1, threads) * wall)), "%",
                   1});
    out.push_back({"service.parse_us", parse * 1e6 / n, "us", n});
    out.push_back({"service.serialize_us", ser * 1e6 / n, "us", n});
    out.push_back({"storage.pin_us_p50", percentile(pin_us, 0.5).value,
                   "us", pin_us.size()});
    out.push_back({"storage.pin_us_p99", percentile(pin_us, 0.99).value,
                   "us", pin_us.size()});
    out.push_back({"unattributed_pct", unattributedPct(wall, spans), "%",
                   spans.size()});
    std::printf("in-process replay: %zu requests in %.3f s (%zu spans, "
                "pins %.3f s)\n",
                n, wall, spans.size(), pins);
}

/** Per-layer values taken from the server's stats op and the client. */
void
serverLayerMetrics(const Target &t, const Phase &high,
                   std::vector<Metric> &out)
{
    const StatsMap &a = high.before, &b = high.after;
    const double windows = delta(a, b, "windows");
    const double hits = delta(a, b, "cache_hits");
    const double misses = delta(a, b, "cache_misses");
    const double bhits = delta(a, b, "buffer_hits");
    const double bmiss = delta(a, b, "buffer_misses");
    const size_t n = high.requests.size();
    out.push_back({"exec.plan_hits", hits, "count", 1});
    out.push_back({"exec.plan_misses", misses, "count", 1});
    out.push_back({"exec.plan_hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
                   1});
    out.push_back({"service.windows", windows, "count", 1});
    out.push_back({"service.window_mean",
                   windows > 0 ? delta(a, b, "served") / windows : 0,
                   "count", size_t(windows)});
    out.push_back({"service.max_window", num(b, "max_window"), "count", 1});
    out.push_back({"service.peak_queue_depth", num(b, "peak_queue_depth"),
                   "count", 1});
    out.push_back({"service.rejected", delta(a, b, "rejected"), "count", 1});
    out.push_back({"service.server_p50_ms", histPercentile(a, b, 0.5), "ms",
                   n});
    out.push_back({"service.server_p99_ms", histPercentile(a, b, 0.99),
                   "ms", n});
    out.push_back({"storage.buffer_hit_ratio",
                   bhits + bmiss > 0 ? bhits / (bhits + bmiss) : 0, "ratio",
                   1});
    out.push_back({"storage.buffer_evictions",
                   delta(a, b, "buffer_evictions"), "count", 1});
    out.push_back({"storage.bytes_mapped", num(b, "storage_bytes_mapped"),
                   "B", 1});
    if (t.cluster)
        for (const char *k : {"forwarded", "retried", "failed", "timed_out",
                              "shed"})
            out.push_back({std::string("cluster.") + k,
                           delta(a, b, std::string("router_") + k), "count",
                           1});
    out.push_back({"client.late_ms_p99", blockedTail(high.lateMs, 0.99).value,
                   "ms", high.lateMs.size()});
    out.push_back({"client.backlog_max",
                   *std::max_element(high.outstanding.begin(),
                                     high.outstanding.end()),
                   "count", high.outstanding.size()});
}

/** Pack the catalog (input preparation, untimed) and rank its planes. */
bool
prepareCatalog(const RunContext &ctx, Target &t, BufferManager &bm,
               double *open_s)
{
    t.catalogDir = ctx.workDir + "/catalog";
    const std::string seg = t.catalogDir + "/models.taseg";
    std::string err;
    std::error_code ec;
    std::filesystem::create_directories(t.catalogDir, ec);
    if (ec ||
        runTool({ctx.binDir + "/ta_pack", "--out", seg, "--suites",
                 kCatalogSuites, "--verify"},
                ctx.workDir + "/pack.log") != 0) {
        std::fprintf(stderr, "perfbench: ta_pack failed (see %s/pack.log)\n",
                     ctx.workDir.c_str());
        return false;
    }
    const double t0 = now();
    if (!bm.openCatalog(t.catalogDir, &err)) {
        std::fprintf(stderr, "perfbench: catalog: %s\n", err.c_str());
        return false;
    }
    *open_s = now() - t0;
    for (const CatalogModel *m : bm.models())
        for (const CatalogEntry &e : m->entries) {
            t.planes.push_back(&e);
            t.planeModel.push_back(m->name);
        }
    // Seeded rank order, Zipf(1) popularity over (model, layer).
    Rng rng(mix(ctx.seed, 0x2f));
    for (size_t i = t.planes.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.uniformInt(0, i - 1));
        std::swap(t.planes[i - 1], t.planes[j]);
        std::swap(t.planeModel[i - 1], t.planeModel[j]);
    }
    double sum = 0;
    for (size_t r = 0; r < t.planes.size(); ++r)
        t.zipfCdf.push_back(sum += 1.0 / (r + 1));
    for (double &c : t.zipfCdf)
        c /= sum;
    std::printf("catalog: %zu planes, %zu bytes mapped, buffer bound %d "
                "pages\n",
                t.planes.size(), bm.bytesMapped(), kCatalogBufferPages);
    return true;
}

} // namespace

void
runServed(const RunContext &ctx, Report &report)
{
    Target t;
    t.cluster = ctx.workload == "cluster_catalog";
    t.load = t.cluster ? kClusterCatalogLoad : kServeSynthLoad;
    t.engineThreads = t.cluster ? 1 : 2;
    BufferManager bm(BufferManager::Config{
        static_cast<size_t>(kCatalogBufferPages), 8});
    double open_s = 0;
    if (t.cluster && !prepareCatalog(ctx, t, bm, &open_s)) {
        report.incorrect("catalog preparation failed");
        return;
    }
    const ServedLoad &L = t.load;
    const std::string log = ctx.workDir + "/server.log";

    if (!ctx.trace)
        setupSeconds(t.argv(ctx, ""), log, kSetupProbes, report);

    // Warm caches first; the rate phases then share the run's seconds
    // and the ladder follows.
    const auto phase = [&](const std::string &name, double rate,
                           uint64_t salt, size_t n) {
        return std::make_unique<Phase>(name, rate, salt,
                                       makeRequests(t, ctx.seed, salt, n));
    };
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(phase("warmup", L.lowRps, 1, kWarmupRequests));
    const double share = kRatePhaseShare * ctx.seconds;
    phases.push_back(phase("low", L.lowRps, 2, phaseCount(L.lowRps, share)));
    phases.push_back(
        phase("high", L.highRps, 3, phaseCount(L.highRps, share)));
    Phase &low = *phases[1], &high = *phases[2];

    // One server session: warmup, low, high, then `more` (the ladder).
    const auto serve = [&](const std::vector<Phase *> &run,
                           const std::string &trace_out,
                           const std::function<void(Client &)> &more,
                           double *rss) {
        ServedProcess server;
        std::string err;
        if (!server.start(t.argv(ctx, trace_out), log, &err) ||
            server.control("ping", 60).empty()) {
            report.incorrect("server did not start: " + err);
            return false;
        }
        Client client(server);
        for (size_t k = 0; k < run.size(); ++k) {
            Phase &ph = *run[k];
            client.run(ph, ctx.seed, !trace_out.empty());
            // A measured phase (run[0] is the warm-up) during which the
            // generator ran late says nothing about the server: it runs
            // once more on the same inputs. The late attempt is kept
            // for verification and failure accounting.
            if (k > 0 && ph.late) {
                phases.push_back(std::make_unique<Phase>(ph));
                phases.back()->name += ".late";
                ph = Phase(ph.name, ph.rate, ph.salt, ph.requests);
                client.run(ph, ctx.seed, !trace_out.empty());
            }
        }
        if (more)
            more(client);
        if (rss != nullptr)
            *rss = serverRssMb(server);
        server.stop();
        return true;
    };

    if (ctx.trace) {
        // The same three phases again, on a server with --trace-out.
        for (size_t i = 0; i < 3; ++i) {
            const Phase &p = *phases[i];
            phases.push_back(std::make_unique<Phase>(
                p.name + ".traced", p.rate, p.salt, p.requests));
        }
        Phase &thigh = *phases[5];
        std::vector<Metric> m;
        const std::string base = ctx.workDir + "/trace";
        if (!serve({phases[0].get(), &low, &high}, "", nullptr, nullptr) ||
            !serve({phases[3].get(), phases[4].get(), &thigh},
                   base + (t.cluster ? "" : ".json"), nullptr, nullptr))
            return;
        std::vector<std::string> merge = {ctx.binDir + "/ta_trace",
                                          "--merged", base + ".merged.json"};
        if (t.cluster) {
            merge.push_back(base + ".router.json");
            merge.push_back(base + ".replica0.json");
            merge.push_back(base + ".replica1.json");
        } else {
            merge.push_back(base + ".json");
        }
        if (runTool(merge, ctx.workDir + "/ta_trace.log") != 0)
            report.incorrect("ta_trace could not stitch the traced run");
        const TraceSums ts = readMergedTrace(base + ".merged.json");
        const size_t nt = ts.size();
        std::printf("stitched %zu traced requests\n", nt);
        m.push_back({"service.queue_ms_p99", tracePercentile(ts, "queue", .99),
                     "ms", nt});
        m.push_back({"service.pack_ms_p50", tracePercentile(ts, "pack", .5),
                     "ms", nt});
        m.push_back({"service.exec_ms_p50", tracePercentile(ts, "exec", .5),
                     "ms", nt});
        m.push_back({"service.exec_ms_p99", tracePercentile(ts, "exec", .99),
                     "ms", nt});
        m.push_back({"service.serialize_ms_p50",
                     tracePercentile(ts, "serialize", .5), "ms", nt});
        if (t.cluster) {
            m.push_back({"cluster.route_ms_p50",
                         tracePercentile(ts, "route", .5), "ms", nt});
            m.push_back({"cluster.route_ms_p99",
                         tracePercentile(ts, "route", .99), "ms", nt});
            m.push_back({"storage.open_s", open_s, "s", 1});
        }
        serverLayerMetrics(t, high, m);
        replayLayers(t, high.requests, t.cluster ? &bm : nullptr, m, report);
        const double p50 = percentile(high.latencyMs, 0.5).value;
        const double p50t = percentile(thigh.latencyMs, 0.5).value;
        m.push_back({"trace_overhead_pct", 100.0 * (p50t - p50) / p50, "%",
                     thigh.latencyMs.size()});
        for (const auto &ph : phases)
            report.attempt(ph->requests.size(), ph->failures());
        verifyPhases(phases, ctx.nproc, report);
        addLayerMetrics(report, m);
        return;
    }

    // Max-rate ladder: fixed steps of kMinPhaseRequests requests each,
    // walked from near the frozen capacity.
    std::vector<double> ladder;
    size_t start = 0;
    for (int i = 0; i < L.ladderSteps; ++i) {
        ladder.push_back(L.ladderBase * std::pow(kLadderRatio, i));
        if (ladder.back() <= L.ladderStart)
            start = static_cast<size_t>(i);
    }
    LadderResult lr;
    double rss = 0;
    const size_t rate_phases = phases.size();
    const auto climb = [&](Client &client) {
        uint64_t probes = 0;
        lr = climbLadder(ladder, start, [&](double rate) {
            char name[32];
            std::snprintf(name, sizeof(name), "step%.0f", rate);
            phases.push_back(phase(name, rate, 100 + probes++,
                                   phaseCount(rate, kStepSeconds)));
            Phase &ph = *phases.back();
            client.run(ph, ctx.seed, false);
            return StepOutcome{ph.meets(L.p99LimitMs), ph.achievedRps,
                               inconclusive(ph.late, ph.backlog)};
        });
    };
    if (!serve({phases[0].get(), &low, &high}, "", climb, &rss))
        return;

    for (size_t i = 0; i < phases.size(); ++i) {
        const Phase &ph = *phases[i];
        // The step that ends the climb is an overload probe: its
        // refusals are the measurement, not failures of the program.
        // Its errors and timeouts still are.
        const bool probe =
            i >= rate_phases && (!lr.found || ph.rate > ladder[lr.step]);
        report.attempt(ph.requests.size(),
                       probe ? ph.errors + ph.timeouts : ph.failures());
        if (i > 0 && i < rate_phases && ph.late)
            report.incorrect("phase " + ph.name +
                             " invalid: the generator ran late");
    }
    verifyPhases(phases, ctx.nproc, report);
    if (lr.generatorLate)
        report.incorrect("max_rate_rps invalid: the generator ran late in " +
                         std::to_string(kMaxLateAttempts) +
                         " attempts at the step that ended the walk");
    else if (!lr.found)
        report.incorrect("no ladder step met the latency limit");
    else if (lr.capped)
        report.incorrect("max_rate_rps invalid: the top ladder step passed, "
                         "so the ladder caps the measurement");
    else
        std::printf("max_rate: step %.1f req/s met p99 <= %.1f ms with no "
                    "backlog (%zu probes, ladder ratio %.2f)\n",
                    ladder[lr.step], L.p99LimitMs, lr.probes, kLadderRatio);

    addLatencyMetrics(report, "low", low.latencyMs, low.latencyMs);
    addLatencyMetrics(report, "high", high.latencyMs, high.latencyMs);
    report.add("max_rate_rps", lr.achievedRps, "req/s",
               lr.found ? phaseCount(ladder[lr.step], kStepSeconds) : 0);
    report.add("peak_rss_mb", rss, "MB", 1 + (t.cluster ? 2 : 0));
}

} // namespace perfbench
