#include "oracle.h"

#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

namespace perfbench {

namespace {

struct SigKey
{
    ta::EngineKey key;
    uint64_t n, k, m;
    int wbits;
    uint64_t seed;

    bool
    operator<(const SigKey &o) const
    {
        if (key < o.key || o.key < key)
            return key < o.key;
        return std::tie(n, k, m, wbits, seed) <
               std::tie(o.n, o.k, o.m, o.wbits, o.seed);
    }
};

SigKey
sigOf(const ta::ServiceRequest &r)
{
    return {ta::engineKeyOf(r), r.shape.n, r.shape.k, r.shape.m, r.wbits,
            r.seed};
}

uint64_t
sigHash(const SigKey &s)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v :
         {s.n, s.k, s.m, static_cast<uint64_t>(s.wbits), s.seed,
          static_cast<uint64_t>(s.key.abits), static_cast<uint64_t>(s.key.tbits),
          static_cast<uint64_t>(s.key.maxdist), uint64_t{s.key.units},
          static_cast<uint64_t>(s.key.useStatic), uint64_t{s.key.samples}})
        h = (h ^ v) * 1099511628211ull;
    return h;
}

class Oracle
{
  public:
    std::string
    expected(const ta::ServiceRequest &req)
    {
        const SigKey sig = sigOf(req);
        auto it = memo_.find(sig);
        if (it == memo_.end()) {
            auto eit = engines_.find(sig.key);
            if (eit == engines_.end())
                eit = engines_
                          .emplace(sig.key,
                                   std::make_unique<ta::TransArrayAccelerator>(
                                       ta::engineConfig(sig.key, 1)))
                          .first;
            it = memo_
                     .emplace(sig, eit->second->runShape(req.shape, req.wbits,
                                                         req.seed))
                     .first;
        }
        return ta::serializeResponse(req, it->second);
    }

  private:
    std::map<ta::EngineKey, std::unique_ptr<ta::TransArrayAccelerator>>
        engines_;
    std::map<SigKey, ta::LayerRun> memo_;
};

bool
isOk(const std::string &line)
{
    return line.find("\"ok\":1") != std::string::npos;
}

} // namespace

uint64_t
verifyResponses(const std::vector<Served> &served, int threads,
                std::string *first)
{
    threads = std::max(1, threads);
    std::vector<std::vector<size_t>> shard(static_cast<size_t>(threads));
    for (size_t i = 0; i < served.size(); ++i)
        if (isOk(served[i].response))
            shard[sigHash(sigOf(served[i].request)) % shard.size()]
                .push_back(i);
    std::mutex mu;
    uint64_t mismatches = 0;
    std::vector<std::thread> pool;
    for (const std::vector<size_t> &idx : shard)
        pool.emplace_back([&, &idx = idx] {
            Oracle oracle;
            for (size_t i : idx) {
                const std::string want = oracle.expected(served[i].request);
                if (want == served[i].response)
                    continue;
                std::lock_guard<std::mutex> lock(mu);
                if (mismatches++ == 0)
                    *first = "id " + std::to_string(served[i].request.id) +
                             ": got " + served[i].response + " want " + want;
            }
        });
    for (std::thread &t : pool)
        t.join();
    return mismatches;
}

} // namespace perfbench
