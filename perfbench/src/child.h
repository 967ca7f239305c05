/**
 * @file
 * A served process under test (ta_serve or ta_router) spoken to over
 * its stdin/stdout pipes: one connection, pipelined requests, replies
 * matched by id. Each child gets its own process group so teardown
 * reaches a router's replicas too; the driver is their subreaper, so
 * every process it started is waited for.
 */

#ifndef PERFBENCH_CHILD_H
#define PERFBENCH_CHILD_H

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

/** Niceness of every served process: the load generator shares the
 *  host with the server it drives and must not be starved by it. */
constexpr int kServedNice = 5;

/** Control-op ids start here; run requests stay below. */
constexpr uint64_t kControlIdBase = uint64_t{1} << 48;

/** steady_clock seconds. */
double now();

/** Run `argv` to completion (stdout/stderr to `log_path`); exit code,
 *  or -1 when it could not be started. */
int runTool(const std::vector<std::string> &argv,
            const std::string &log_path);

/** Peak resident set (VmHWM) of `pid` in MiB, 0 when unreadable. */
double peakRssMb(pid_t pid);

/** Direct children of `pid` (scans /proc). */
std::vector<pid_t> childrenOf(pid_t pid);

/** Become the subreaper of orphaned descendants; reap all of them. */
void becomeSubreaper();
void reapAll();

/** One received reply. */
struct Reply
{
    double at = 0; ///< steady_clock receive time
    std::string line;
};

class ServedProcess
{
  public:
    ServedProcess() = default;
    ~ServedProcess();
    ServedProcess(const ServedProcess &) = delete;
    ServedProcess &operator=(const ServedProcess &) = delete;

    /** Spawn `argv` with piped stdin/stdout, stderr to `log_path`. */
    bool start(const std::vector<std::string> &argv,
               const std::string &log_path, std::string *err);

    pid_t pid() const { return pid_; }

    /** Write one request line (thread-compatible: one writer). */
    bool send(const std::string &line);

    /** Synchronous control op ("ping", "stats"); "" on timeout. */
    std::string control(const std::string &op, double timeout_s);

    /** Replies to run requests received so far. */
    uint64_t received() const { return received_.load(); }

    /** Wait until `count` run replies arrived or `deadline` passed. */
    bool waitReceived(uint64_t count, double deadline);

    /** Move out every run reply received so far, keyed by id. */
    std::unordered_map<uint64_t, Reply> takeReplies();

    /**
     * Graceful stop: shutdown op, wait for exit, then SIGKILL the
     * process group if anything is left. Idempotent.
     */
    void stop();

  private:
    void readLoop();

    pid_t pid_ = -1;
    int inFd_ = -1;
    int outFd_ = -1;
    std::atomic<uint64_t> received_{0};
    uint64_t nextControlId_ = kControlIdBase;
    std::mutex mu_; ///< guards replies_ and control_
    std::condition_variable cv_;
    std::unordered_map<uint64_t, Reply> replies_;
    std::unordered_map<uint64_t, std::string> control_;
    std::thread reader_;
};

} // namespace perfbench

#endif // PERFBENCH_CHILD_H
