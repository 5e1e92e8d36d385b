#include "sweep/server.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <poll.h>
#include <sstream>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/config.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sweep/axis.hh"
#include "sweep/journal.hh"
#include "trace/resolve.hh"
#include "trace/trace_io.hh"
#include "trace/suite.hh"

namespace hermes::sweep
{

namespace
{

/** Sweep-server defaults for specs that omit warmup=/instrs=. */
constexpr std::uint64_t kDefaultWarmup = 60'000;
constexpr std::uint64_t kDefaultInstrs = 250'000;

/** Responses are one line; fold any embedded breaks out of errors. */
std::string
oneLine(std::string s)
{
    for (char &c : s)
        if (c == '\n' || c == '\r')
            c = ' ';
    return s;
}

std::optional<std::uint64_t>
parseFpHex(const std::string &s)
{
    if (s.size() != 16)
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
    if (errno != 0 || end != s.c_str() + 16)
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
fillSockaddr(const std::string &path, sockaddr_un &addr)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            "server: socket path must be 1.." +
            std::to_string(sizeof(addr.sun_path) - 1) +
            " characters; got '" + path + "'");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

} // namespace

GridPoint
pointFromSpec(const std::string &spec)
{
    Config overrides;
    std::string label;
    bool have_label = false;
    std::vector<std::string> trace_names;
    std::uint64_t warmup = kDefaultWarmup;
    std::uint64_t instrs = kDefaultInstrs;

    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t next = spec.find(';', pos);
        if (next == std::string::npos)
            next = spec.size();
        const std::string part = spec.substr(pos, next - pos);
        pos = next + 1;
        if (part.empty())
            continue;
        const std::size_t eq = part.find('=');
        if (eq == 0 || eq == std::string::npos)
            throw std::invalid_argument(
                "scenario spec wants ';'-separated key=value pairs; "
                "got '" +
                part + "'");
        const std::string key = part.substr(0, eq);
        const std::string value = part.substr(eq + 1);
        if (key == "label") {
            label = value;
            have_label = true;
        } else if (key == "trace") {
            for (std::string &name :
                 splitCommaList(value, "trace list"))
                trace_names.push_back(std::move(name));
        } else if (key == "warmup" || key == "instrs") {
            const auto v = parseUint64(value);
            if (!v)
                throw std::invalid_argument(
                    key + " wants a non-negative integer; got '" +
                    value + "'");
            (key == "warmup" ? warmup : instrs) = *v;
        } else {
            overrides.set(key, value);
        }
    }
    if (trace_names.empty())
        throw std::invalid_argument(
            "scenario spec needs at least one trace=NAME");

    std::vector<TraceSpec> traces;
    std::string joined;
    for (const std::string &name : trace_names) {
        traces.push_back(resolveTrace(name));
        joined += (joined.empty() ? "" : "+") + name;
    }
    // The same conventions as the CLIs: a mix implies its core count
    // unless pinned, and a single trace replicates across cores.
    if (!overrides.contains("system.cores") && traces.size() > 1)
        overrides.set("system.cores",
                      std::to_string(traces.size()));

    GridPoint p;
    p.config = SystemConfig::fromConfig(overrides);
    if (traces.size() == 1 && p.config.numCores > 1)
        traces.assign(static_cast<std::size_t>(p.config.numCores),
                      traces[0]);
    if (static_cast<int>(traces.size()) != p.config.numCores &&
        !(traces.size() == 1 && p.config.numCores == 1))
        throw std::invalid_argument(
            "got " + std::to_string(traces.size()) + " traces for a " +
            std::to_string(p.config.numCores) + "-core system");
    p.traces = std::move(traces);
    // Budgets are taken verbatim: HERMES_SIM_SCALE is applied by
    // clients before they build specs, never by the server, so one
    // server answers every client with consistent point identities.
    p.budget.warmupInstrs = warmup;
    p.budget.simInstrs = instrs;
    p.label = have_label ? label : joined;
    return p;
}

std::string
specFromPoint(const GridPoint &point)
{
    auto checked = [](const std::string &s, const char *what) {
        if (s.find(';') != std::string::npos ||
            s.find('\n') != std::string::npos ||
            s.find('\r') != std::string::npos)
            throw std::invalid_argument(
                std::string(what) +
                " cannot carry ';' or line breaks in a scenario "
                "spec: '" +
                s + "'");
        return s;
    };
    std::string spec = "label=" + checked(point.label, "label");
    spec += ";warmup=" + std::to_string(point.budget.warmupInstrs);
    spec += ";instrs=" + std::to_string(point.budget.simInstrs);
    std::string traces;
    for (const TraceSpec &t : point.traces) {
        // Trace names join into one comma-separated field, so a name
        // (e.g. a file: path) must not carry the list separator.
        if (t.name().find(',') != std::string::npos)
            throw std::invalid_argument(
                "trace name cannot carry ',' in a scenario spec: '" +
                t.name() + "'");
        traces += (traces.empty() ? "" : ",") + checked(t.name(),
                                                        "trace name");
    }
    spec += ";trace=" + traces;
    // The full registry rendering (not a delta): pointFromSpec then
    // reconstructs the identical config whatever the defaults are.
    const Config cfg = point.config.toConfig();
    for (const std::string &key : cfg.keys())
        spec += ";" + key + "=" +
                checked(cfg.getString(key).value_or(""),
                        "config value");
    return spec;
}

std::string
serverRequest(const std::string &socket_path,
              const std::string &request)
{
    sockaddr_un addr;
    fillSockaddr(socket_path, addr);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("server: socket: ") +
                                 std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("server: cannot connect to " +
                                 socket_path + ": " +
                                 std::strerror(err) +
                                 " (is hermes_sweep --serve running?)");
    }
    bool ok = writeAll(fd, request + "\n");
    std::string response;
    while (ok) {
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
        if (response.find('\n') != std::string::npos)
            break;
    }
    ::close(fd);
    const std::size_t nl = response.find('\n');
    if (!ok || nl == std::string::npos)
        throw std::runtime_error(
            "server: no response from " + socket_path + " for '" +
            request + "'");
    return response.substr(0, nl);
}

// --- the server -------------------------------------------------------

struct SweepServer::Impl
{
    enum class JobState : std::uint8_t
    {
        Queued,
        Running,
        Done,
        Failed
    };

    struct Job
    {
        std::string spec;
        GridPoint point;
        JobState state = JobState::Queued;
        PointResult result; ///< Valid when Done.
        std::string error;  ///< Valid when Failed.
    };

    ServeOptions opts;
    std::string queuePath;

    mutable std::mutex m;
    std::condition_variable cvWork; ///< Wakes workers.
    std::condition_variable cvDone; ///< Wakes "wait" + waitForShutdown.
    std::map<std::uint64_t, Job> jobs;
    std::deque<std::uint64_t> queue;
    ServerStats stats;
    bool started = false;
    bool stopping = false;
    bool shutdownRequested = false;

    int listenFd = -1;
    std::FILE *queueFile = nullptr;
    std::thread acceptThread;
    std::vector<std::thread> workerThreads;
    std::vector<std::thread> connThreads;
    /** Open connection fds; entries are closed only under m. */
    std::vector<int> connFds;

    explicit Impl(ServeOptions o) : opts(std::move(o))
    {
        if (opts.cache == nullptr)
            throw std::runtime_error(
                "server: a result cache is required");
        if (opts.workers < 0)
            throw std::runtime_error("server: negative worker count");
        if (opts.stateDir.empty())
            throw std::runtime_error("server: empty state directory");
        sockaddr_un probe;
        fillSockaddr(opts.socketPath, probe); // validates the length
        ensureDirectory(opts.stateDir);
        queuePath = opts.stateDir + "/queue.log";
        restoreQueue();
    }

    ~Impl()
    {
        stopLocked();
        if (queueFile != nullptr)
            std::fclose(queueFile);
    }

    static const char *
    stateName(JobState s)
    {
        switch (s) {
        case JobState::Queued:
            return "queued";
        case JobState::Running:
            return "running";
        case JobState::Done:
            return "done";
        case JobState::Failed:
            return "failed";
        }
        return "unknown";
    }

    /**
     * Replay queue.log: every acknowledged submission either resolves
     * from the result cache (completed before the restart) or
     * re-enqueues. The journal is then compacted to the still-pending
     * specs. Torn final lines are dropped (crash mid-append); a
     * malformed earlier line is corruption and a hard error.
     */
    void
    restoreQueue()
    {
        std::ifstream in(queuePath, std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            const std::string text = buf.str();
            std::size_t pos = 0;
            std::size_t line_no = 0;
            while (pos < text.size()) {
                const std::size_t nl = text.find('\n', pos);
                const bool complete = nl != std::string::npos;
                const std::string line = text.substr(
                    pos, complete ? nl - pos : std::string::npos);
                pos = complete ? nl + 1 : text.size();
                ++line_no;
                if (line.empty())
                    continue;
                std::string why;
                try {
                    restoreLine(line);
                    continue;
                } catch (const std::exception &e) {
                    why = e.what();
                }
                if (!complete || pos >= text.size())
                    continue; // torn tail: the submit never acked
                throw std::runtime_error(
                    "server: corrupt queue journal " + queuePath +
                    " line " + std::to_string(line_no) + ": " + why);
            }
        }
        compactQueue();
    }

    void
    restoreLine(const std::string &line)
    {
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            throw std::runtime_error("want '<fp16> <spec>'");
        const auto fp = parseFpHex(line.substr(0, sp));
        if (!fp)
            throw std::runtime_error("bad fingerprint");
        const std::string spec = line.substr(sp + 1);
        GridPoint point = pointFromSpec(spec);
        if (pointFingerprint(point) != *fp)
            throw std::runtime_error(
                "spec does not match its recorded fingerprint");
        if (jobs.count(*fp) != 0)
            return; // duplicate submission, already restored
        Job job;
        job.spec = spec;
        job.point = std::move(point);
        if (auto hit = opts.cache->loadByFp(*fp)) {
            job.state = JobState::Done;
            job.result = std::move(*hit);
            ++stats.cacheHits;
        } else {
            job.state = JobState::Queued;
            queue.push_back(*fp);
            ++stats.restored;
        }
        jobs.emplace(*fp, std::move(job));
    }

    /** Rewrite queue.log to the pending specs, then reopen to append. */
    void
    compactQueue()
    {
        std::string text;
        for (const std::uint64_t fp : queue)
            text += fingerprintHex(fp) + " " + jobs.at(fp).spec + "\n";
        auto sink = openByteSink(queuePath, Compression::None);
        sink->write(text.data(), text.size());
        sink->finish();
        queueFile = std::fopen(queuePath.c_str(), "ab");
        if (queueFile == nullptr)
            throw std::runtime_error("server: cannot append to " +
                                     queuePath + ": " +
                                     std::strerror(errno));
    }

    /** Durable append; the submit is acked only after this returns. */
    void
    appendQueueLocked(std::uint64_t fp, const std::string &spec)
    {
        const std::string line = fingerprintHex(fp) + " " + spec + "\n";
        if (std::fwrite(line.data(), 1, line.size(), queueFile) !=
                line.size() ||
            std::fflush(queueFile) != 0)
            throw std::runtime_error("server: write failed on " +
                                     queuePath);
        static_cast<void>(fsync(fileno(queueFile)));
    }

    void
    start()
    {
        std::lock_guard<std::mutex> g(m);
        if (started)
            throw std::runtime_error("server: already started");
        sockaddr_un addr;
        fillSockaddr(opts.socketPath, addr);
        // A leftover socket file from a killed server would make bind
        // fail; only a *live* server (one that answers connect) blocks
        // the address.
        if (access(opts.socketPath.c_str(), F_OK) == 0) {
            const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (probe >= 0 &&
                ::connect(probe,
                          reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0) {
                ::close(probe);
                throw std::runtime_error(
                    "server: another server is already listening on " +
                    opts.socketPath);
            }
            if (probe >= 0)
                ::close(probe);
            static_cast<void>(unlink(opts.socketPath.c_str()));
        }
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error(std::string("server: socket: ") +
                                     std::strerror(errno));
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            const int err = errno;
            ::close(fd);
            throw std::runtime_error("server: cannot listen on " +
                                     opts.socketPath + ": " +
                                     std::strerror(err));
        }
        listenFd = fd;
        started = true;
        stopping = false;
        acceptThread = std::thread([this] { acceptLoop(); });
        for (int i = 0; i < opts.workers; ++i)
            workerThreads.emplace_back([this] { workerLoop(); });
    }

    void
    stopLocked()
    {
        {
            std::lock_guard<std::mutex> g(m);
            if (!started || stopping) {
                stopping = true;
                cvWork.notify_all();
                cvDone.notify_all();
                if (!started)
                    return;
            }
            stopping = true;
        }
        cvWork.notify_all();
        cvDone.notify_all();
        // The accept loop polls with a timeout and re-checks stopping,
        // so it exits on its own; join it before touching connFds
        // (only it appends there).
        if (acceptThread.joinable())
            acceptThread.join();
        {
            // Kick blocked reads; the fds stay open (and thus stay
            // *ours*) until their connection thread closes them.
            std::lock_guard<std::mutex> g(m);
            for (const int fd : connFds)
                static_cast<void>(::shutdown(fd, SHUT_RDWR));
        }
        for (std::thread &t : connThreads)
            if (t.joinable())
                t.join();
        for (std::thread &t : workerThreads)
            if (t.joinable())
                t.join();
        connThreads.clear();
        workerThreads.clear();
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        static_cast<void>(unlink(opts.socketPath.c_str()));
        std::lock_guard<std::mutex> g(m);
        started = false;
    }

    void
    acceptLoop()
    {
        for (;;) {
            {
                std::lock_guard<std::mutex> g(m);
                if (stopping)
                    return;
            }
            pollfd p = {};
            p.fd = listenFd;
            p.events = POLLIN;
            const int pr = ::poll(&p, 1, 200);
            if (pr <= 0)
                continue;
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                continue;
            std::lock_guard<std::mutex> g(m);
            if (stopping) {
                ::close(fd);
                return;
            }
            connFds.push_back(fd);
            connThreads.emplace_back(
                [this, fd] { connectionLoop(fd); });
        }
    }

    void
    closeConnection(int fd)
    {
        std::lock_guard<std::mutex> g(m);
        for (std::size_t i = 0; i < connFds.size(); ++i) {
            if (connFds[i] == fd) {
                connFds.erase(connFds.begin() +
                              static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
        ::close(fd);
    }

    void
    connectionLoop(int fd)
    {
        std::string buf;
        for (;;) {
            std::size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (line.empty())
                    continue;
                std::string resp;
                try {
                    resp = handleRequest(line);
                } catch (const std::exception &e) {
                    resp = "error " + oneLine(e.what());
                }
                if (!writeAll(fd, resp + "\n")) {
                    closeConnection(fd);
                    return;
                }
            }
            char chunk[4096];
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        closeConnection(fd);
    }

    std::string
    statusOf(std::uint64_t fp, const Job &job) const
    {
        std::string out =
            "ok " + fingerprintHex(fp) + " " + stateName(job.state);
        if (job.state == JobState::Failed)
            out += " " + job.error;
        return out;
    }

    std::string
    handleRequest(const std::string &line)
    {
        const std::size_t sp = line.find(' ');
        const std::string verb =
            sp == std::string::npos ? line : line.substr(0, sp);
        const std::string rest =
            sp == std::string::npos ? "" : line.substr(sp + 1);
        if (verb == "ping")
            return "ok pong";
        if (verb == "submit")
            return handleSubmit(rest);
        if (verb == "poll" || verb == "wait" || verb == "result") {
            const auto fp = parseFpHex(rest);
            if (!fp)
                return "error bad job id '" + oneLine(rest) +
                       "' (want 16 hex digits)";
            if (verb == "poll")
                return handlePoll(*fp);
            if (verb == "wait")
                return handleWait(*fp);
            return handleResult(*fp);
        }
        if (verb == "stats")
            return handleStats();
        if (verb == "shutdown") {
            std::lock_guard<std::mutex> g(m);
            shutdownRequested = true;
            cvDone.notify_all();
            return "ok bye";
        }
        return "error unknown request '" + oneLine(verb) +
               "' (want submit|poll|wait|result|stats|ping|shutdown)";
    }

    std::string
    handleSubmit(const std::string &spec)
    {
        GridPoint point = pointFromSpec(spec); // throws -> error line
        const std::uint64_t fp = pointFingerprint(point);
        std::lock_guard<std::mutex> g(m);
        ++stats.submitted;
        const auto it = jobs.find(fp);
        if (it != jobs.end())
            return statusOf(fp, it->second);
        Job job;
        job.spec = spec;
        if (auto hit = opts.cache->load(point)) {
            job.point = std::move(point);
            job.state = JobState::Done;
            job.result = std::move(*hit);
            ++stats.cacheHits;
            const std::string resp = statusOf(fp, job);
            jobs.emplace(fp, std::move(job));
            cvDone.notify_all();
            return resp;
        }
        // Ack only after the submission is durable: a restart between
        // the ack and the simulation re-enqueues it from queue.log.
        appendQueueLocked(fp, spec);
        job.point = std::move(point);
        job.state = JobState::Queued;
        jobs.emplace(fp, std::move(job));
        queue.push_back(fp);
        cvWork.notify_one();
        return "ok " + fingerprintHex(fp) + " queued";
    }

    std::string
    handlePoll(std::uint64_t fp)
    {
        std::lock_guard<std::mutex> g(m);
        const auto it = jobs.find(fp);
        if (it != jobs.end())
            return statusOf(fp, it->second);
        // A compacted restart forgets finished jobs; their results
        // still live in the store, which is the durable answer.
        if (opts.cache->loadByFp(fp))
            return "ok " + fingerprintHex(fp) + " done";
        return "error unknown job " + fingerprintHex(fp);
    }

    std::string
    handleWait(std::uint64_t fp)
    {
        std::unique_lock<std::mutex> lock(m);
        const auto it = jobs.find(fp);
        if (it == jobs.end()) {
            if (opts.cache->loadByFp(fp))
                return "ok " + fingerprintHex(fp) + " done";
            return "error unknown job " + fingerprintHex(fp);
        }
        cvDone.wait(lock, [&] {
            const Job &job = jobs.at(fp);
            return stopping || job.state == JobState::Done ||
                   job.state == JobState::Failed;
        });
        const Job &job = jobs.at(fp);
        if (job.state != JobState::Done &&
            job.state != JobState::Failed)
            return "error server shutting down";
        return statusOf(fp, job);
    }

    std::string
    handleResult(std::uint64_t fp)
    {
        std::lock_guard<std::mutex> g(m);
        const auto it = jobs.find(fp);
        if (it != jobs.end()) {
            const Job &job = it->second;
            if (job.state == JobState::Failed)
                return "error job failed: " + oneLine(job.error);
            if (job.state != JobState::Done)
                return "error job not finished (" +
                       std::string(stateName(job.state)) + ")";
            JournalRecord rec;
            rec.index = 0;
            rec.pointFp = fp;
            rec.result = job.result;
            rec.result.index = 0;
            return "ok " + encodeJournalRecord(rec);
        }
        if (auto hit = opts.cache->loadByFp(fp)) {
            JournalRecord rec;
            rec.index = 0;
            rec.pointFp = fp;
            rec.result = std::move(*hit);
            return "ok " + encodeJournalRecord(rec);
        }
        return "error unknown job " + fingerprintHex(fp);
    }

    std::string
    handleStats()
    {
        std::lock_guard<std::mutex> g(m);
        std::size_t pending_jobs = 0;
        for (const auto &[fp, job] : jobs) {
            static_cast<void>(fp);
            if (job.state == JobState::Queued ||
                job.state == JobState::Running)
                ++pending_jobs;
        }
        return "ok submitted=" + std::to_string(stats.submitted) +
               " completed=" + std::to_string(stats.completed) +
               " failed=" + std::to_string(stats.failed) +
               " cache_hits=" + std::to_string(stats.cacheHits) +
               " restored=" + std::to_string(stats.restored) +
               " pending=" + std::to_string(pending_jobs) +
               " workers=" + std::to_string(opts.workers);
    }

    void
    workerLoop()
    {
        for (;;) {
            std::unique_lock<std::mutex> lock(m);
            cvWork.wait(lock,
                        [&] { return stopping || !queue.empty(); });
            if (stopping)
                return;
            const std::uint64_t fp = queue.front();
            queue.pop_front();
            jobs.at(fp).state = JobState::Running;
            const GridPoint point = jobs.at(fp).point;
            lock.unlock();

            PointResult r;
            r.index = 0;
            r.label = point.label;
            std::string error;
            const auto t0 = std::chrono::steady_clock::now();
            try {
                r.stats = simulatePoint(point);
            } catch (const std::exception &e) {
                error = e.what();
            }
            r.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            lock.lock();
            Job &job = jobs.at(fp);
            if (error.empty()) {
                // Persist first: once a client sees "done" the result
                // must survive a restart.
                try {
                    opts.cache->store(point, r);
                } catch (const std::exception &e) {
                    error = e.what();
                }
            }
            if (error.empty()) {
                job.result = std::move(r);
                job.state = JobState::Done;
                ++stats.completed;
            } else {
                job.error = oneLine(error);
                job.state = JobState::Failed;
                ++stats.failed;
            }
            cvDone.notify_all();
        }
    }
};

SweepServer::SweepServer(ServeOptions opts)
    : impl_(new Impl(std::move(opts)))
{
}

SweepServer::~SweepServer()
{
    delete impl_;
}

void
SweepServer::start()
{
    impl_->start();
}

void
SweepServer::stop()
{
    impl_->stopLocked();
}

void
SweepServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(impl_->m);
    impl_->cvDone.wait(lock, [this] {
        return impl_->shutdownRequested || impl_->stopping;
    });
}

std::size_t
SweepServer::pending() const
{
    std::lock_guard<std::mutex> g(impl_->m);
    std::size_t n = 0;
    for (const auto &[fp, job] : impl_->jobs) {
        static_cast<void>(fp);
        if (job.state == Impl::JobState::Queued ||
            job.state == Impl::JobState::Running)
            ++n;
    }
    return n;
}

ServerStats
SweepServer::statsSnapshot() const
{
    std::lock_guard<std::mutex> g(impl_->m);
    return impl_->stats;
}

const std::string &
SweepServer::socketPath() const
{
    return impl_->opts.socketPath;
}

} // namespace hermes::sweep
