/**
 * @file
 * Self-test of the benchmark's arithmetic on synthetic inputs. Run
 * before every benchmark run; exits non-zero on the first failure.
 */

#include <cmath>
#include <cstdio>

#include "stats.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++g_failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
testPercentileRule()
{
    const Percentile p = percentile(ramp(1000), 0.99);
    check(near(p.value, 990), "p99 of 1..1000 is rank 990");
    check(p.samples == 1000 && p.beyond == 10 && p.supported,
          "1000 samples leave exactly 10 beyond p99");
    const Percentile q = percentile(ramp(999), 0.99);
    check(q.beyond == 9 && !q.supported, "999 samples do not support p99");
    check(near(percentile(ramp(100), 0.5).value, 50), "p50 of 1..100");
    check(percentile({}, 0.99).samples == 0, "empty sample");
    std::vector<double> shuffled = {5, 1, 4, 2, 3};
    check(near(percentile(shuffled, 0.5).value, 3), "order-free percentile");
    check(near(median({1, 2, 3, 4}), 2.5), "even median");
}

void
testBlockedTail()
{
    // Three blocks of 1..1000 with a burst of large values confined to
    // the middle block: its p99 jumps, the median of blocks does not.
    std::vector<double> v;
    for (int b = 0; b < 3; ++b)
        for (const double x : ramp(1000))
            v.push_back(b == 1 && x > 900 ? 1e6 : x);
    const Tail t = blockedTail(v, 0.99);
    check(t.blocks == 3 && t.samples == 3000, "three full blocks");
    check(near(t.value, 990), "one stalled block does not move the tail");
    check(percentile(v, 0.99).value == 1e6, "the pooled p99 would move");
    const Tail r = blockedTail(ramp(2500), 0.99);
    check(r.blocks == 2, "the remainder joins the last block");
    check(near(r.value, 0.5 * (990 + 2485)), "median of two block tails");
    check(blockedTail(ramp(10), 0.5).blocks == 1, "short input is one block");
}

void
testBacklog()
{
    check(!growingBacklog(std::vector<double>(400, 3.0)),
          "a steady queue is no backlog");
    std::vector<double> noisy;
    for (int i = 0; i < 400; ++i)
        noisy.push_back(i % 7);
    check(!growingBacklog(noisy), "oscillation is no backlog");
    check(growingBacklog(ramp(400)), "a climbing queue is a backlog");
    std::vector<double> late_rise(300, 2.0);
    for (int i = 0; i < 100; ++i)
        late_rise.push_back(40.0 + i);
    check(growingBacklog(late_rise), "a rise in the last quarter counts");
    check(!growingBacklog({1, 2, 3}), "too short to judge");
}

void
testLadder()
{
    std::vector<double> ladder;
    for (int i = 0; i < 10; ++i)
        ladder.push_back(100 * std::pow(1.05, i));
    const double capacity = 130;
    const auto probe = [&](double rate) {
        return StepOutcome{rate <= capacity, rate * 0.99};
    };
    // 100, 105, 110.25, 115.76, 121.55, 127.63, 134.01: step 5 passes.
    LadderResult up = climbLadder(ladder, 2, probe);
    check(up.found && up.step == 5, "climb stops below capacity");
    check(near(up.achievedRps, ladder[5] * 0.99), "reports the measured rate");
    check(up.probes == 6, "climb probes start..first failure, retried");
    LadderResult down = climbLadder(ladder, 8, probe);
    check(down.found && down.step == 5, "descent finds the same step");
    LadderResult none =
        climbLadder(ladder, 3, [](double) { return StepOutcome{false, 0}; });
    check(!none.found && none.probes == 8, "nothing passes");
    // One stall per step: the retry absorbs it and the climb goes on.
    int calls = 0;
    LadderResult flaky = climbLadder(ladder, 0, [&](double rate) {
        return StepOutcome{++calls % 2 == 0 && rate <= capacity, rate};
    });
    check(flaky.found && flaky.step == 5, "a single failed attempt is retried");
    check(!up.capped && !up.generatorLate, "an honest climb is valid");
    LadderResult top =
        climbLadder(ladder, 0, [](double r) { return StepOutcome{true, r}; });
    check(top.found && top.step == 9, "everything passes: top step");
    check(top.capped, "passing the top step flags the ladder as capping");
    check(climbLadder(ladder, 9, probe).found &&
              !climbLadder(ladder, 9, probe).capped,
          "a descent from the top is not capped");
}

void
testLadderGeneratorLate()
{
    std::vector<double> ladder;
    for (int i = 0; i < 10; ++i)
        ladder.push_back(100 * std::pow(1.05, i));
    // The generator cannot keep up above 120: every attempt there is
    // late, so the walk stops without a server verdict.
    const auto slow_generator = [](double rate) {
        const bool late = rate > 120;
        return StepOutcome{!late, rate, late};
    };
    LadderResult gen = climbLadder(ladder, 0, slow_generator);
    check(gen.found && gen.step == 3, "climb stops where the generator lags");
    check(gen.generatorLate, "a step the generator never keeps invalidates");
    check(gen.probes == 4 + kMaxLateAttempts, "late attempts are repeated");
    // A host stall makes the first attempt at the step above capacity
    // late: it is repeated, and two on-time failures end the climb.
    int calls = 0;
    LadderResult once = climbLadder(ladder, 0, [&](double rate) {
        const bool late = rate > 120 && ++calls == 1;
        return StepOutcome{rate <= 120, rate, late};
    });
    check(once.step == 3 && !once.generatorLate && once.probes == 7,
          "a late attempt is repeated, not counted as a failure");
    // Late attempts at a passing step: the step still passes.
    calls = 0;
    LadderResult retried = climbLadder(ladder, 0, [&](double rate) {
        const bool late = rate > 110 && rate < 120 && ++calls <= 3;
        return StepOutcome{!late && rate <= 130, rate, late};
    });
    check(retried.step == 5 && !retried.generatorLate,
          "late attempts below kMaxLateAttempts leave the walk valid");
    // The start step is beyond the generator: no descent, no result.
    LadderResult down = climbLadder(ladder, 9, [](double rate) {
        return StepOutcome{rate <= 111, rate, rate > 140};
    });
    check(!down.found && down.generatorLate &&
              down.probes == size_t(kMaxLateAttempts),
          "a late start step ends the walk");
    check(inconclusive(true, false), "late generator, steady queue: no verdict");
    check(!inconclusive(true, true),
          "a backlog grown despite a late generator is the server's");
    check(!inconclusive(false, false) && !inconclusive(false, true),
          "an on-time attempt is a verdict");
}

void
testLateGenerator()
{
    std::vector<double> late(1000, 0.05);
    check(!generatorLate(late, 2.0), "on-time generator is valid");
    for (int i = 0; i < 9; ++i)
        late[i] = 50;
    check(!generatorLate(late, 2.0), "nine stalls stay beyond p99");
    late[9] = 50;
    late[10] = 50;
    check(generatorLate(late, 2.0), "eleven stalls invalidate the phase");
    std::vector<double> burst(3000, 0.05);
    for (int i = 0; i < 100; ++i)
        burst[1000 + i] = 50;
    check(!generatorLate(burst, 2.0), "one late block of three is a stall");
}

void
testSelfTime()
{
    // root [0,10) with children [1,4) and [3,6) (overlap) and a child
    // sticking out of the parent [8,12).
    std::vector<Span> spans = {
        {0, 10, -1}, {1, 4, 0}, {3, 6, 0}, {8, 12, 0}, {4.5, 5, 2}};
    const std::vector<double> self = selfTimes(spans);
    check(near(self[0], 10 - (5 + 2)), "root minus union of clipped kids");
    check(near(self[1], 3), "leaf self time is its duration");
    check(near(self[2], 2.5), "child minus its own child");
    check(near(self[3], 4), "a span's own duration is never clipped");
    // Layer roots [0,4) and [5,9) in a wall of 10: 2 s unattributed.
    check(near(unattributedPct(10, {{0, 4, -1}, {5, 9, -1}}), 20),
          "uncovered wall is unattributed");
    check(near(unattributedPct(10, spans), 100.0 * (10 - 13) / 10),
          "self times over-covering the wall go negative, not hidden");
    check(near(unionLength({{0, 2}, {1, 3}, {5, 6}}), 4), "interval union");
}

} // namespace

int
main()
{
    testPercentileRule();
    testBlockedTail();
    testBacklog();
    testLadder();
    testLadderGeneratorLate();
    testLateGenerator();
    testSelfTime();
    if (g_failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
