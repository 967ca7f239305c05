#include "child.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** fork+exec with optional stdin/stdout pipes; child in its own group
 *  and killed if the driver dies. */
pid_t
spawn(const std::vector<std::string> &argv, const std::string &log_path,
      int *in_fd, int *out_fd, int niceness)
{
    int in_pipe[2] = {-1, -1}, out_pipe[2] = {-1, -1};
    if (in_fd != nullptr && (::pipe2(in_pipe, O_CLOEXEC) != 0 ||
                             ::pipe2(out_pipe, O_CLOEXEC) != 0))
        return -1;
    const int log_fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                              0644);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
        errno = 0;
        ::setpgid(0, 0);
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        // Lower the served process's priority a little so the load
        // generator sharing the host is never starved by it.
        if (niceness != 0 && ::nice(niceness) == -1 && errno != 0)
            _exit(127);
        if (::getppid() != parent)
            _exit(127);
        if (in_fd != nullptr) {
            ::dup2(in_pipe[0], STDIN_FILENO);
            ::dup2(out_pipe[1], STDOUT_FILENO);
        } else {
            const int null_fd = ::open("/dev/null", O_RDONLY);
            ::dup2(null_fd, STDIN_FILENO);
            ::dup2(log_fd, STDOUT_FILENO);
        }
        ::dup2(log_fd, STDERR_FILENO);
        ::execv(args[0], args.data());
        _exit(127);
    }
    if (log_fd >= 0)
        ::close(log_fd);
    if (in_fd != nullptr) {
        ::close(in_pipe[0]);
        ::close(out_pipe[1]);
        *in_fd = in_pipe[1];
        *out_fd = out_pipe[0];
        if (pid < 0) {
            ::close(*in_fd);
            ::close(*out_fd);
        }
    }
    return pid;
}

/** waitpid with a deadline; true when reaped. */
bool
waitExit(pid_t pid, double timeout_s, int *status)
{
    const double deadline = now() + timeout_s;
    while (true) {
        const pid_t r = ::waitpid(pid, status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return true;
        if (now() > deadline)
            return false;
        ::usleep(2000);
    }
}

uint64_t
replyId(const std::string &line)
{
    static const char kPrefix[] = "{\"id\":";
    if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0)
        return UINT64_MAX;
    return std::strtoull(line.c_str() + sizeof(kPrefix) - 1, nullptr, 10);
}

} // namespace

int
runTool(const std::vector<std::string> &argv, const std::string &log_path)
{
    const pid_t pid = spawn(argv, log_path, nullptr, nullptr, 0);
    if (pid < 0)
        return -1;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::vector<pid_t> out;
    DIR *d = ::opendir("/proc");
    if (d == nullptr)
        return out;
    while (const dirent *e = ::readdir(d)) {
        const pid_t p = static_cast<pid_t>(std::atoi(e->d_name));
        if (p <= 0)
            continue;
        std::ifstream f(std::string("/proc/") + e->d_name + "/stat");
        std::string stat;
        std::getline(f, stat);
        // Fields after the parenthesised command: state, ppid, ...
        const size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 1));
        std::string state;
        pid_t ppid = 0;
        rest >> state >> ppid;
        if (ppid == pid)
            out.push_back(p);
    }
    ::closedir(d);
    return out;
}

void
becomeSubreaper()
{
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
}

void
reapAll()
{
    // Orphaned replicas were re-parented to us; wait for every one.
    const double deadline = now() + 10;
    while (true) {
        const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
        if (r < 0 && errno == ECHILD)
            return;
        if (r == 0) {
            if (now() > deadline) {
                for (pid_t c : childrenOf(::getpid()))
                    ::kill(c, SIGKILL);
            }
            ::usleep(2000);
        }
    }
}

ServedProcess::~ServedProcess() { stop(); }

bool
ServedProcess::start(const std::vector<std::string> &argv,
                     const std::string &log_path, std::string *err)
{
    ::signal(SIGPIPE, SIG_IGN);
    pid_ = spawn(argv, log_path, &inFd_, &outFd_, kServedNice);
    if (pid_ < 0) {
        *err = "cannot spawn " + argv[0];
        return false;
    }
    reader_ = std::thread([this] { readLoop(); });
    return true;
}

bool
ServedProcess::send(const std::string &line)
{
    std::string buf = line;
    buf.push_back('\n');
    size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::write(inFd_, buf.data() + off, buf.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

std::string
ServedProcess::control(const std::string &op, double timeout_s)
{
    const uint64_t id = nextControlId_++;
    if (!send("{\"id\":" + std::to_string(id) + ",\"op\":\"" + op + "\"}"))
        return "";
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                 [&] { return control_.count(id) != 0; });
    const auto it = control_.find(id);
    if (it == control_.end())
        return "";
    std::string out = std::move(it->second);
    control_.erase(it);
    return out;
}

bool
ServedProcess::waitReceived(uint64_t count, double deadline)
{
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock,
                        std::chrono::duration<double>(
                            std::max(0.0, deadline - now())),
                        [&] { return received_.load() >= count; });
}

std::unordered_map<uint64_t, Reply>
ServedProcess::takeReplies()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(replies_);
}

void
ServedProcess::readLoop()
{
    std::string buf;
    char chunk[65536];
    while (true) {
        const ssize_t n = ::read(outFd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        const double at = now();
        buf.append(chunk, static_cast<size_t>(n));
        size_t start = 0, nl;
        std::lock_guard<std::mutex> lock(mu_);
        while ((nl = buf.find('\n', start)) != std::string::npos) {
            std::string line = buf.substr(start, nl - start);
            start = nl + 1;
            const uint64_t id = replyId(line);
            if (id >= kControlIdBase && id != UINT64_MAX) {
                control_[id] = std::move(line);
            } else {
                replies_[id] = Reply{at, std::move(line)};
                received_.fetch_add(1);
            }
        }
        buf.erase(0, start);
        cv_.notify_all();
    }
}

void
ServedProcess::stop()
{
    if (pid_ < 0)
        return;
    control("shutdown", 10);
    ::close(inFd_);
    int status = 0;
    if (!waitExit(pid_, 20, &status)) {
        ::killpg(pid_, SIGKILL);
        waitExit(pid_, 10, &status);
    }
    // Replicas of a router share its group; none may outlive it.
    ::killpg(pid_, SIGKILL);
    if (reader_.joinable())
        reader_.join();
    ::close(outFd_);
    pid_ = -1;
}

} // namespace perfbench
