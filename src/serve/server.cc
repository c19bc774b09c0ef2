#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "chaos/hooks.h"
#include "obs/registry.h"
#include "sim/counters.h"
#include "sim/logger.h"

namespace mlps::serve {

namespace {

/** Engine options with the service's non-negotiable policies. */
exec::ExecOptions
serviceExecOptions(exec::ExecOptions opts)
{
    // A service answers per request: failures (deadline overruns
    // among them) must become structured per-request errors, never a
    // throw that tears down the shared engine mid-batch.
    opts.on_error = exec::ErrorPolicy::Capture;
    return opts;
}

double
monotonicSeconds()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    double now = static_cast<double>(ts.tv_sec) +
                 static_cast<double>(ts.tv_nsec) * 1e-9;
    // Chaos clock jitter: admission and drain logic must tolerate a
    // perturbed monotonic reading (TokenBucket already clamps
    // backwards time).
    if (chaos::ClockHooks *h = chaos::clockHooks())
        now = h->onMonotonic(now);
    return now;
}

} // namespace

// ---- ServeCore ------------------------------------------------------

ServeCore::ServeCore(const ServeConfig &cfg, Emit emit)
    : cfg_(cfg), emit_(std::move(emit)),
      engine_(serviceExecOptions(cfg.exec)), admission_(cfg.admission)
{
}

void
ServeCore::clientConnected(const std::string &client)
{
    emit_(client, encodeHello());
}

void
ServeCore::clientDisconnected(const std::string &client)
{
    for (std::uint64_t seq : admission_.cancelClient(client)) {
        pending_.erase(seq);
        ++cancelled_;
    }
}

void
ServeCore::handleLine(const std::string &client,
                      const std::string &line, double now_s)
{
    ParsedRequest req;
    std::string error;
    if (!parseRequest(line, catalog_, &req, &error)) {
        ++invalid_;
        emit_(client, encodeReject(req.id, "invalid", error));
        return;
    }
    switch (req.kind) {
    case ParsedRequest::Kind::Ping:
        emit_(client, encodePong(req.id));
        return;
    case ParsedRequest::Kind::Stats:
        emit_(client, encodeStats(req.id, statsJson()));
        return;
    case ParsedRequest::Kind::Metrics:
        // Live registry snapshot; works during drain, like stats.
        emit_(client,
              encodeMetrics(
                  req.id, req.metrics_format,
                  req.metrics_format == "prometheus"
                      ? obs::MetricRegistry::global().toPrometheus()
                      : obs::MetricRegistry::global().toJson()));
        return;
    case ParsedRequest::Kind::Run:
        break;
    }
    if (draining_) {
        emit_(client, encodeReject(req.id, "draining",
                                   "server is draining; resubmit "
                                   "after restart"));
        return;
    }
    std::uint64_t seq = 0;
    Admission verdict = admission_.offer(client, now_s, &seq);
    switch (verdict.outcome) {
    case Admission::Outcome::Admitted:
        pending_.emplace(
            seq, PendingRun{client, req.id, std::move(req.run),
                            req.deadline_s > 0.0
                                ? req.deadline_s
                                : cfg_.default_deadline_s,
                            std::chrono::steady_clock::now()});
        return;
    case Admission::Outcome::RateLimited:
        emit_(client,
              encodeReject(req.id, "overloaded",
                           "client over its request rate",
                           verdict.retry_after_s));
        return;
    case Admission::Outcome::QueueFull:
        emit_(client,
              encodeReject(req.id, "overloaded",
                           "request queue is full",
                           verdict.retry_after_s));
        return;
    }
}

std::size_t
ServeCore::dispatchBatch()
{
    std::vector<AdmissionQueue::Ticket> tickets =
        admission_.takeBatch(cfg_.max_batch);
    if (tickets.empty())
        return 0;

    // Group by effective deadline — the engine's watchdog is batch-
    // wide, so each distinct deadline evaluates as its own batch
    // (ascending, so bounded requests are not delayed by unbounded
    // ones landing first in round-robin order).
    std::map<double, std::vector<PendingRun>> groups;
    for (const auto &t : tickets) {
        auto it = pending_.find(t.seq);
        if (it == pending_.end())
            continue; // client left; ticket already cancelled
        groups[it->second.deadline_s].push_back(
            std::move(it->second));
        pending_.erase(it);
    }

    std::size_t dispatched = 0;
    for (auto &[deadline, runs] : groups) {
        engine_.setRunDeadline(deadline);
        std::vector<exec::RunRequest> batch;
        batch.reserve(runs.size());
        for (auto &p : runs)
            batch.push_back(p.run);
        engine_.run(std::move(batch),
                    [&](std::size_t i, const exec::RunResult &r) {
                        latency_ms_.record(
                            std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                runs[i].submitted)
                                .count());
                        emit_(runs[i].client,
                              encodeResult(runs[i].id, r));
                    });
        dispatched += runs.size();
        served_ += runs.size();
    }
    return dispatched;
}

std::size_t
ServeCore::cancelPending()
{
    std::size_t cancelled = 0;
    while (admission_.pending() > 0) {
        for (const auto &t :
             admission_.takeBatch(admission_.pending())) {
            auto it = pending_.find(t.seq);
            if (it == pending_.end())
                continue;
            emit_(it->second.client,
                  encodeReject(it->second.id, "draining",
                               "cancelled: drain budget exhausted"));
            pending_.erase(it);
            ++cancelled;
            ++cancelled_;
        }
    }
    return cancelled;
}

std::string
ServeCore::statsJson() const
{
    const exec::EngineStats s = engine_.stats();
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"proto\":%d,\"pending\":%zu,\"admitted\":%llu,"
        "\"rejected_rate\":%llu,\"rejected_full\":%llu,"
        "\"served\":%llu,\"invalid\":%llu,\"cancelled\":%llu,"
        "\"draining\":%s,"
        "\"engine\":{\"requests\":%llu,\"cache_hits\":%llu,"
        "\"unique_runs\":%llu,\"journal_loaded\":%llu,"
        "\"degraded\":%llu,\"evictions\":%llu,"
        "\"compactions\":%llu,\"deadline_flags\":%llu}",
        kProtocolVersion, admission_.pending(),
        static_cast<unsigned long long>(admission_.admitted()),
        static_cast<unsigned long long>(admission_.rejectedRate()),
        static_cast<unsigned long long>(admission_.rejectedFull()),
        static_cast<unsigned long long>(served_),
        static_cast<unsigned long long>(invalid_),
        static_cast<unsigned long long>(cancelled_),
        draining_ ? "true" : "false",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.cache_hits),
        static_cast<unsigned long long>(s.unique_runs),
        static_cast<unsigned long long>(s.journal_loaded),
        static_cast<unsigned long long>(s.degraded),
        static_cast<unsigned long long>(s.evictions),
        static_cast<unsigned long long>(s.compactions),
        static_cast<unsigned long long>(s.deadline_flags));
    // Request-latency percentiles (host wall clock, hence volatile;
    // placed after the deterministic counters).
    std::string out(buf);
    out += ",\"latency_ms\":{\"count\":" +
           std::to_string(latency_ms_.count());
    auto pct = [this](double p) {
        return latency_ms_.count() > 0
                   ? sim::jsonDouble(latency_ms_.percentile(p))
                   : std::string("0");
    };
    out += ",\"p50\":" + pct(50.0);
    out += ",\"p95\":" + pct(95.0);
    out += ",\"p99\":" + pct(99.0);
    out += "}}";
    return out;
}

// ---- TcpServer ------------------------------------------------------

namespace {

int g_signal_pipe_wr = -1;

void
onTermSignal(int)
{
    if (g_signal_pipe_wr >= 0) {
        char byte = 1;
        // Best effort; a full pipe means a wakeup is already queued.
        [[maybe_unused]] ssize_t n =
            ::write(g_signal_pipe_wr, &byte, 1);
    }
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** The event loop: sessions, poll set, drain state machine. */
class Loop
{
  public:
    explicit Loop(const TcpServerConfig &cfg)
        : cfg_(cfg),
          core_(cfg.core,
                [this](const std::string &client,
                       const std::string &line) {
                    deliver(client, line);
                })
    {
    }

    int run();

    ServeCore &core() { return core_; }

  private:
    void deliver(const std::string &client, const std::string &line);
    void flushSession(Session &s);
    void acceptClients();
    void readSession(Session &s);
    void dropSession(int fd, bool notify_core);
    bool listenSocket(std::string *error);

    const TcpServerConfig &cfg_;
    ServeCore core_;
    /** Sessions closed because the peer vanished mid-write (EPIPE /
     *  ECONNRESET on send, real or injected). */
    sim::Counter epipe_;
    obs::MetricRegistry::Registration epipe_reg_ =
        obs::MetricRegistry::global().registerCounter(
            "serve.sessions.epipe", &epipe_,
            obs::Volatility::Volatile);
    int listen_fd_ = -1;
    int bound_port_ = 0;
    int pipe_rd_ = -1;
    std::map<int, Session> sessions_;        // by fd
    std::map<std::string, int> client_fds_;  // client id -> fd
    std::uint64_t next_client_ = 1;
    bool draining_ = false;
    double drain_deadline_s_ = 0.0;
};

bool
Loop::listenSocket(std::string *error)
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(cfg_.port));
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) !=
        1) {
        *error = "bad listen address '" + cfg_.host + "'";
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        *error = std::string("bind: ") + std::strerror(errno);
        return false;
    }
    if (::listen(listen_fd_, 64) != 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    bound_port_ = ntohs(addr.sin_port);
    setNonBlocking(listen_fd_);
    return true;
}

void
Loop::deliver(const std::string &client, const std::string &line)
{
    auto it = client_fds_.find(client);
    if (it == client_fds_.end())
        return; // client already gone; drop the response
    auto sit = sessions_.find(it->second);
    if (sit == sessions_.end())
        return;
    sit->second.outbox += line;
    sit->second.outbox += '\n';
    flushSession(sit->second);
}

void
Loop::flushSession(Session &s)
{
    while (!s.outbox.empty()) {
        std::size_t want = s.outbox.size();
        if (chaos::NetHooks *h = chaos::netHooks()) {
            want = std::min(want, h->onSend(s.fd, want));
            if (want == 0) {
                // Injected EPIPE: the peer vanished mid-write.
                epipe_.add(1.0);
                s.closing = true;
                s.outbox.clear();
                return;
            }
        }
        ssize_t n =
            ::send(s.fd, s.outbox.data(), want, MSG_NOSIGNAL);
        if (n > 0) {
            s.outbox.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // poll will retry via POLLOUT
        // SIGPIPE is ignored and sends use MSG_NOSIGNAL, so a dead
        // peer surfaces here as EPIPE/ECONNRESET: count it and close
        // this session only — never the process.
        if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
            epipe_.add(1.0);
        s.closing = true; // peer vanished; reads will reap it
        s.outbox.clear();
        return;
    }
}

void
Loop::acceptClients()
{
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient; poll again
        setNonBlocking(fd);
        std::string client = "c";
        client += std::to_string(next_client_++);
        sessions_.emplace(
            fd, Session(fd, client, kMaxLineBytes));
        client_fds_[client] = fd;
        core_.clientConnected(client);
    }
}

void
Loop::readSession(Session &s)
{
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            // Chaos taps: byte-level fuzzing of inbound traffic, and
            // forced mid-line disconnects after this chunk.
            bool chaos_drop = false;
            if (chaos::NetHooks *h = chaos::netHooks()) {
                h->onRecvBytes(s.fd, buf,
                               static_cast<std::size_t>(n));
                chaos_drop = h->onRecvDisconnect(s.fd);
            }
            std::vector<std::string> lines;
            if (!s.lines.feed(buf, static_cast<std::size_t>(n),
                              &lines)) {
                deliver(s.client,
                        encodeReject("", "invalid",
                                     "request line too long"));
                s.closing = true;
            }
            double now = monotonicSeconds();
            for (const auto &line : lines) {
                if (line.empty())
                    continue;
                core_.handleLine(s.client, line, now);
            }
            if (chaos_drop) {
                s.closing = true;
                s.outbox.clear();
                return;
            }
            if (s.closing)
                return;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        s.closing = true; // EOF or hard error
        s.outbox.clear();
        return;
    }
}

void
Loop::dropSession(int fd, bool notify_core)
{
    auto it = sessions_.find(fd);
    if (it == sessions_.end())
        return;
    if (notify_core)
        core_.clientDisconnected(it->second.client);
    client_fds_.erase(it->second.client);
    ::close(fd);
    sessions_.erase(it);
}

int
Loop::run()
{
    std::string error;
    if (!listenSocket(&error)) {
        sim::warn("serve: %s", error.c_str());
        return 3;
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        sim::warn("serve: pipe: %s", std::strerror(errno));
        return 3;
    }
    pipe_rd_ = pipe_fds[0];
    setNonBlocking(pipe_rd_);
    setNonBlocking(pipe_fds[1]);
    g_signal_pipe_wr = pipe_fds[1];

    struct sigaction sa{};
    sa.sa_handler = onTermSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    if (!cfg_.port_file.empty()) {
        if (FILE *f = std::fopen(cfg_.port_file.c_str(), "w")) {
            std::fprintf(f, "%d\n", bound_port_);
            std::fclose(f);
        } else {
            sim::warn("serve: cannot write port file %s",
                      cfg_.port_file.c_str());
        }
    }
    sim::inform("serve: listening on %s:%d (jobs=%d)",
                cfg_.host.c_str(), bound_port_,
                core_.engine().jobs());

    for (;;) {
        std::vector<pollfd> fds;
        fds.push_back({pipe_rd_, POLLIN, 0});
        if (!draining_ && listen_fd_ >= 0)
            fds.push_back({listen_fd_, POLLIN, 0});
        for (auto &[fd, s] : sessions_) {
            short events = 0;
            if (!s.closing)
                events |= POLLIN;
            if (!s.outbox.empty())
                events |= POLLOUT;
            if (events != 0)
                fds.push_back({fd, events, 0});
        }

        int timeout_ms = -1;
        if (core_.hasPending())
            timeout_ms = 0; // dispatch below, then re-poll
        else if (draining_)
            timeout_ms = 50; // re-check the drain deadline

        int rc = ::poll(fds.data(),
                        static_cast<nfds_t>(fds.size()), timeout_ms);
        if (rc < 0 && errno != EINTR) {
            sim::warn("serve: poll: %s", std::strerror(errno));
            return 3;
        }

        for (const auto &p : fds) {
            if (p.revents == 0)
                continue;
            if (p.fd == pipe_rd_) {
                char drainbuf[16];
                while (::read(pipe_rd_, drainbuf,
                              sizeof(drainbuf)) > 0) {
                }
                if (!draining_) {
                    draining_ = true;
                    drain_deadline_s_ =
                        monotonicSeconds() +
                        cfg_.core.drain_timeout_s;
                    core_.beginDrain();
                    if (listen_fd_ >= 0) {
                        ::close(listen_fd_);
                        listen_fd_ = -1;
                    }
                    sim::inform("serve: draining (%zu queued, "
                                "budget %.1f s)",
                                core_.admission().pending(),
                                cfg_.core.drain_timeout_s);
                }
            } else if (p.fd == listen_fd_) {
                if (p.revents & POLLIN)
                    acceptClients();
            } else {
                auto it = sessions_.find(p.fd);
                if (it == sessions_.end())
                    continue;
                if (p.revents & (POLLIN | POLLHUP | POLLERR))
                    readSession(it->second);
                if ((p.revents & POLLOUT) && !it->second.closing)
                    flushSession(it->second);
            }
        }

        // Reap sessions that finished closing (outbox flushed or
        // discarded). Collect first: dropSession mutates the map.
        std::vector<int> dead;
        for (auto &[fd, s] : sessions_)
            if (s.closing && s.outbox.empty())
                dead.push_back(fd);
        for (int fd : dead)
            dropSession(fd, /*notify_core=*/true);

        if (core_.hasPending()) {
            if (!draining_ ||
                monotonicSeconds() < drain_deadline_s_) {
                core_.dispatchBatch();
            } else {
                std::size_t n = core_.cancelPending();
                sim::warn("serve: drain budget exhausted; "
                          "cancelled %zu queued runs", n);
            }
        }

        if (draining_ && !core_.hasPending()) {
            // Give outboxes one bounded push, then leave.
            double flush_deadline =
                std::max(drain_deadline_s_,
                         monotonicSeconds() + 0.2);
            bool unsent = true;
            while (unsent &&
                   monotonicSeconds() < flush_deadline) {
                unsent = false;
                for (auto &[fd, s] : sessions_) {
                    flushSession(s);
                    if (!s.outbox.empty())
                        unsent = true;
                }
                if (unsent)
                    ::poll(nullptr, 0, 10);
            }
            break;
        }
    }

    for (auto &[fd, s] : sessions_)
        ::close(fd);
    sessions_.clear();
    ::close(pipe_rd_);
    ::close(g_signal_pipe_wr);
    g_signal_pipe_wr = -1;

    sim::inform("serve: drained; %s",
                core_.engine().summary().c_str());
    return 0;
}

} // namespace

int
runTcpServer(const TcpServerConfig &cfg,
             const std::function<void(ServeCore &)> &on_drained)
{
    Loop loop(cfg);
    int rc = loop.run();
    if (on_drained)
        on_drained(loop.core());
    return rc;
}

} // namespace mlps::serve
