/**
 * @file
 * The benchmark's own arithmetic, kept free of I/O so the self-test
 * can pin it on synthetic inputs: the percentile rule, open-loop
 * validity (late generator, growing backlog), the max-rate ladder and
 * traced self time.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/** A percentile must have at least this many samples beyond it. */
constexpr size_t kMinTail = 10;

/** Nearest-rank percentile with the sample count it rests on. */
struct Percentile
{
    double value = 0;
    size_t samples = 0;
    size_t beyond = 0;        ///< samples strictly above the rank
    bool supported = false;   ///< beyond >= kMinTail
};

/**
 * Nearest-rank percentile `q` (0 < q <= 1) of `v`: the value at rank
 * ceil(q * n). p99 is therefore supported from n = 1000 on (rank 990,
 * ten samples beyond it).
 */
inline Percentile
percentile(std::vector<double> v, double q)
{
    Percentile p;
    p.samples = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size() - 1e-9));
    rank = std::clamp<size_t>(rank, 1, v.size());
    p.value = v[rank - 1];
    p.beyond = v.size() - rank;
    p.supported = p.beyond >= kMinTail;
    return p;
}

inline double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/** Requests per tail block: a block's p99 keeps kMinTail beyond it. */
constexpr size_t kTailBlock = 1000;

/** A tail percentile that one host stall cannot move. */
struct Tail
{
    double value = 0;
    size_t samples = 0;
    size_t blocks = 0;
};

/**
 * Percentile `q` of each consecutive block of kTailBlock samples (the
 * remainder joins the last block), then the median over the blocks.
 * Fewer than kTailBlock samples form one block.
 */
inline Tail
blockedTail(const std::vector<double> &v, double q)
{
    Tail t;
    t.samples = v.size();
    t.blocks = std::max<size_t>(1, v.size() / kTailBlock);
    std::vector<double> per;
    for (size_t b = 0; b < t.blocks; ++b) {
        const auto first = v.begin() + b * kTailBlock;
        const auto last = b + 1 == t.blocks ? v.end() : first + kTailBlock;
        per.push_back(percentile(std::vector<double>(first, last), q).value);
    }
    t.value = median(per);
    return t;
}

/**
 * A phase is invalid when the generator itself ran late: the blocked
 * p99 of (actual send - due time) above `bound_ms`. Latency is timed from
 * the due time, so a late generator would otherwise be reported as a
 * slow server.
 */
inline bool
generatorLate(const std::vector<double> &late_ms, double bound_ms)
{
    return blockedTail(late_ms, 0.99).value > bound_ms;
}

/** Backlog growth allowance: one batch window of slack on top of a
 *  50% rise, so small-count noise never reads as growth. */
constexpr double kBacklogSlack = 8.0;
constexpr double kBacklogGrowth = 1.5;

/**
 * `outstanding` holds the number of requests in flight sampled at
 * every send, in send order. The backlog grows when the mean of the
 * last quarter exceeds kBacklogGrowth x the first quarter's mean plus
 * kBacklogSlack: a stable queue oscillates around one level, an
 * overloaded one climbs for the whole phase.
 */
inline bool
growingBacklog(const std::vector<double> &outstanding)
{
    const size_t q = outstanding.size() / 4;
    if (q == 0)
        return false;
    double first = 0, last = 0;
    for (size_t i = 0; i < q; ++i) {
        first += outstanding[i];
        last += outstanding[outstanding.size() - q + i];
    }
    first /= q;
    last /= q;
    return last > kBacklogGrowth * first + kBacklogSlack;
}

/**
 * Whether an open-loop attempt says nothing about the server: the
 * generator ran late, and the backlog did not grow. A late generator
 * sends slower than scheduled, so a backlog that grows anyway means the
 * server fell behind even that pace, and the attempt is its failure.
 */
inline bool
inconclusive(bool generator_late, bool backlog_grew)
{
    return generator_late && !backlog_grew;
}

/** One probed ladder step. */
struct StepOutcome
{
    bool pass = false;
    double achievedRps = 0; ///< completions / (last completion - start)
    bool late = false;      ///< inconclusive: the generator ran late
};

struct LadderResult
{
    bool found = false;     ///< some step passed
    size_t step = 0;        ///< index of the highest passing step
    double achievedRps = 0; ///< its measured completion rate
    size_t probes = 0;
    /** kMaxLateAttempts attempts at one step were inconclusive, so
     *  the walk stopped there without a server verdict:
     *  the limit found may be the generator's, not the server's, and
     *  must not be reported. */
    bool generatorLate = false;
    /** The top step passed: the capacity lies beyond the ladder and
     *  the result is only a lower bound. */
    bool capped = false;
};

/** Inconclusive attempts at one step before the walk gives up on a
 *  server verdict there. */
constexpr int kMaxLateAttempts = 4;

/**
 * Highest passing step of a fixed, ascending `ladder`, starting the
 * walk at `start`: climb while steps pass, or descend until one does.
 * Assumes pass/fail is monotone in the rate, which is why only one
 * direction is walked. An inconclusive attempt (`late`) is repeated;
 * a step fails only when two conclusive attempts at it both fail, so
 * one host stall cannot end the walk.
 */
inline LadderResult
climbLadder(const std::vector<double> &ladder, size_t start,
            const std::function<StepOutcome(double)> &probe)
{
    LadderResult r;
    if (ladder.empty())
        return r;
    const auto attempt = [&](size_t i) {
        int failed = 0, late = 0;
        for (;;) {
            const StepOutcome o = probe(ladder[i]);
            ++r.probes;
            if (o.pass || (!o.late && ++failed == 2))
                return o;
            if (o.late && ++late == kMaxLateAttempts) {
                r.generatorLate = true;
                return o;
            }
        }
    };
    const auto take = [&](size_t i, const StepOutcome &o) {
        r.found = true;
        r.step = i;
        r.achievedRps = o.achievedRps;
    };
    size_t i = std::min(start, ladder.size() - 1);
    StepOutcome o = attempt(i);
    if (o.pass) {
        take(i, o);
        while (i + 1 < ladder.size()) {
            o = attempt(++i);
            if (!o.pass)
                return r;
            take(i, o);
        }
        r.capped = true;
        return r;
    }
    while (i > 0 && !r.generatorLate) {
        o = attempt(--i);
        if (o.pass) {
            take(i, o);
            return r;
        }
    }
    return r;
}

/** One recorded span. `parent` indexes the same vector, -1 = root. */
struct Span
{
    double start = 0;
    double end = 0;
    int parent = -1;
};

/** Length of the union of [start, end) intervals. */
inline double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open)
            total += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
    }
    if (open)
        total += cur_e - cur_s;
    return total;
}

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (children clipped to the parent,
 * overlapping children counted once).
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<size_t>(s.parent)];
            kids[static_cast<size_t>(s.parent)].push_back(
                {std::max(s.start, p.start), std::min(s.end, p.end)});
        }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = (spans[i].end - spans[i].start) - unionLength(kids[i]);
    return self;
}

/** Share (percent) of `wall` that no span's self time accounts for. */
inline double
unattributedPct(double wall, const std::vector<Span> &spans)
{
    if (wall <= 0)
        return 0;
    double covered = 0;
    for (double s : selfTimes(spans))
        covered += s;
    return 100.0 * (wall - covered) / wall;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
