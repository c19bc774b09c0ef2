#include "chaos/soak.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "chaos/hooks.h"
#include "exec/journal.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/logger.h"
#include "sim/rng.h"

namespace fs = std::filesystem;

namespace mlps::chaos {

namespace {

/** Open file descriptors of this process; -1 when unreadable. */
long
fdCount()
{
    std::error_code ec;
    fs::directory_iterator it("/proc/self/fd", ec);
    if (ec)
        return -1;
    long n = 0;
    for (const auto &entry : it) {
        (void)entry;
        ++n;
    }
    return n;
}

/**
 * The request pool: 12 distinct cheap points (system x gpus x
 * precision on the NCF reference workload), so duplicates are common
 * at soak op counts and the cache/journal layers see real reuse.
 */
constexpr std::size_t kPool = 12;

std::string
poolRequestLine(std::size_t pool_index, const std::string &id)
{
    // Both systems have >= 4 GPUs, so every pool point is valid and
    // distinct: the settle cycle must get all 12 ok.
    static const char *systems[] = {"C4140 (K)", "DSS 8440"};
    static const int gpus[] = {1, 2, 4};
    static const char *precisions[] = {"fp32", "mixed"};
    std::size_t s = pool_index % 2;
    std::size_t g = (pool_index / 2) % 3;
    std::size_t p = (pool_index / 6) % 2;
    std::ostringstream os;
    os << "{\"type\":\"run\",\"id\":\"" << id
       << "\",\"workload\":\"MLPf_NCF_Py\",\"system\":\""
       << systems[s] << "\",\"gpus\":" << gpus[g]
       << ",\"precision\":\"" << precisions[p] << "\"}";
    return os.str();
}

/** Client index from a generation id ("c<ci>g<gen>"); npos on junk. */
std::size_t
clientOfGenId(const std::string &gen_id)
{
    if (gen_id.size() < 3 || gen_id[0] != 'c')
        return std::string::npos;
    std::size_t ci = 0;
    std::size_t i = 1;
    for (; i < gen_id.size() && gen_id[i] >= '0' && gen_id[i] <= '9';
         ++i)
        ci = ci * 10 + static_cast<std::size_t>(gen_id[i] - '0');
    return i > 1 && i < gen_id.size() && gen_id[i] == 'g'
               ? ci
               : std::string::npos;
}

/** One fed chaotic request, for the answered/byte-identical checks. */
struct OpRecord {
    std::size_t pool = 0;
    std::string id;
    std::string gen_id; ///< client generation that carried it
    bool fuzzed = false;
};

std::string
ratio2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

double
metric(const std::string &name)
{
    return obs::MetricRegistry::global().value(name);
}

/** Evaluate the whole pool once through a fresh core on `cache_dir`
 *  (empty = in-memory) and return canonical lines by pool index. */
struct PoolRun {
    std::vector<std::string> canonical{kPool};
    std::size_t ok = 0;
    exec::EngineStats stats;
};

PoolRun
runPool(const std::string &cache_dir, int jobs,
        const std::string &id_prefix)
{
    PoolRun out;
    serve::ServeConfig cfg;
    cfg.exec.jobs = jobs;
    cfg.exec.cache_dir = cache_dir;
    serve::ServeCore core(
        cfg, [&](const std::string &, const std::string &line) {
            serve::Response resp;
            std::string err;
            if (!serve::decodeResponse(line, &resp, &err))
                return;
            if (resp.type != "result" || resp.status != "ok")
                return;
            std::size_t pool = std::string::npos;
            if (resp.id.size() > id_prefix.size() &&
                resp.id.compare(0, id_prefix.size(), id_prefix) == 0)
                pool = static_cast<std::size_t>(std::stoul(
                    resp.id.substr(id_prefix.size())));
            if (pool >= kPool)
                return;
            out.canonical[pool] =
                serve::canonicalResultLine(resp.train);
            ++out.ok;
        });
    core.clientConnected("pool");
    for (std::size_t i = 0; i < kPool; ++i)
        core.handleLine("pool",
                        poolRequestLine(
                            i, id_prefix + std::to_string(i)),
                        0.1 * static_cast<double>(i + 1));
    while (core.hasPending())
        core.dispatchBatch();
    out.stats = core.engine().stats();
    return out;
}

} // namespace

SoakReport
runSoak(const SoakOptions &opts)
{
    SoakReport report;
    std::ostringstream out;
    const std::size_t cycles = std::max<std::size_t>(1, opts.cycles);
    const std::size_t clients = std::max<std::size_t>(1, opts.clients);

    out << "mlpsim soak report\n"
        << "seed=" << opts.seed << " ops=" << opts.ops
        << " chaos=" << opts.chaos.canonical()
        << " cycles=" << cycles << " clients=" << clients
        << " pool=" << kPool << "\n";

    const long fd_baseline = fdCount();

    // The soak owns its cache directory: start from nothing so the
    // run is a pure function of the options.
    std::error_code ec;
    fs::remove_all(opts.cache_dir, ec);

    // ---- clean twin: expected canonical line per pool entry -------
    PoolRun twin = runPool("", opts.jobs, "q");
    out << "twin: " << twin.ok << "/" << kPool << " ok\n";

    // ---- chaos schedules -------------------------------------------
    // Soak-grade rates: high enough that a 300-op run reliably hits
    // every fault kind, low enough that most operations succeed.
    FsChaosRates fs_rates;
    fs_rates.short_write = 0.12;
    fs_rates.enospc = 0.02;
    fs_rates.fsync_fail = 0.08;
    fs_rates.crash = 0.20;
    fs_rates.rename_fail = 0.10;
    NetChaosRates net_rates;
    net_rates.epipe = 0.01;
    net_rates.partial = 0.10;
    net_rates.fuzz = 0.12;
    net_rates.disconnect = 0.02;

    std::unique_ptr<ScheduledFsHooks> fs_hooks;
    std::unique_ptr<ScheduledNetHooks> net_hooks;
    std::unique_ptr<ScheduledClockHooks> clock_hooks;
    if (opts.chaos.fs)
        fs_hooks =
            std::make_unique<ScheduledFsHooks>(opts.seed, fs_rates);
    if (opts.chaos.net)
        net_hooks =
            std::make_unique<ScheduledNetHooks>(opts.seed, net_rates);
    if (opts.chaos.clock)
        clock_hooks = std::make_unique<ScheduledClockHooks>(
            opts.seed, /*sigma_s=*/0.01);

    sim::RngStreams streams(opts.seed);
    sim::Rng req_rng = streams.stream("soak.requests");

    // ---- chaotic cycles --------------------------------------------
    std::vector<OpRecord> ops;
    std::map<std::string, std::size_t> op_by_id;
    std::set<std::string> answered_ids;
    std::set<std::string> dropped_gens;
    std::size_t mismatches = 0;
    std::size_t results_ok = 0;
    std::size_t rejects = 0;
    std::size_t drops = 0;
    bool accounting_ok = true;
    std::size_t global_op = 0;

    {
        ScopedChaos install(fs_hooks.get(), net_hooks.get(),
                            clock_hooks.get());
        for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
            std::size_t cycle_ops = opts.ops / cycles;
            if (cycle + 1 == cycles)
                cycle_ops += opts.ops % cycles;

            std::vector<std::uint64_t> gen(clients, 0);
            std::vector<bool> pending_drop(clients, false);
            auto genId = [&](std::size_t ci) {
                return "c" + std::to_string(ci) + "g" +
                       std::to_string(gen[ci]);
            };

            serve::ServeConfig cfg;
            cfg.exec.jobs = opts.jobs;
            cfg.exec.cache_dir = opts.cache_dir;
            auto core = std::make_unique<serve::ServeCore>(
                cfg,
                [&](const std::string &client,
                    const std::string &line) {
                    serve::Response resp;
                    std::string err;
                    if (!serve::decodeResponse(line, &resp, &err))
                        return;
                    if (resp.type == "hello")
                        return;
                    if (resp.type == "result") {
                        answered_ids.insert(resp.id);
                        if (resp.status == "ok") {
                            ++results_ok;
                            auto it = op_by_id.find(resp.id);
                            if (it != op_by_id.end() &&
                                !ops[it->second].fuzzed &&
                                serve::canonicalResultLine(
                                    resp.train) !=
                                    twin.canonical[ops[it->second]
                                                       .pool])
                                ++mismatches;
                        } else {
                            ++rejects;
                        }
                    }
                    // Client-side delivery chaos: a failed send means
                    // the peer is gone; the session must be isolated,
                    // exactly like the TCP loop's EPIPE path.
                    if (chaos::NetHooks *h = chaos::netHooks()) {
                        std::size_t ci = clientOfGenId(client);
                        if (ci < clients &&
                            h->onSend(static_cast<int>(ci),
                                      line.size()) == 0)
                            pending_drop[ci] = true;
                    }
                });

            for (std::size_t ci = 0; ci < clients; ++ci)
                core->clientConnected(genId(ci));

            auto processDrops = [&] {
                for (std::size_t ci = 0; ci < clients; ++ci) {
                    if (!pending_drop[ci])
                        continue;
                    pending_drop[ci] = false;
                    dropped_gens.insert(genId(ci));
                    core->clientDisconnected(genId(ci));
                    ++gen[ci];
                    ++drops;
                    core->clientConnected(genId(ci));
                }
            };

            for (std::size_t i = 0; i < cycle_ops;
                 ++i, ++global_op) {
                double now =
                    0.05 * static_cast<double>(global_op + 1);
                if (ClockHooks *h = chaos::clockHooks())
                    now = h->onMonotonic(now);

                std::size_t ci = static_cast<std::size_t>(
                    req_rng.below(clients));
                std::size_t pool = static_cast<std::size_t>(
                    req_rng.below(kPool));

                OpRecord op;
                op.pool = pool;
                op.id = "q" + std::to_string(pool) + "." +
                        std::to_string(global_op);
                op.gen_id = genId(ci);
                std::string line = poolRequestLine(pool, op.id);
                std::string fed = line;
                if (NetHooks *h = chaos::netHooks()) {
                    h->onRecvBytes(static_cast<int>(ci), fed.data(),
                                   fed.size());
                    op.fuzzed = fed != line;
                }
                op_by_id[op.id] = ops.size();
                ops.push_back(op);

                core->handleLine(op.gen_id, fed, now);
                if (NetHooks *h = chaos::netHooks();
                    h && h->onRecvDisconnect(static_cast<int>(ci)))
                    pending_drop[ci] = true;
                processDrops();

                if (global_op % 8 == 7)
                    core->dispatchBatch();
                processDrops();
            }
            while (core->hasPending()) {
                core->dispatchBatch();
                processDrops();
            }

            // A captured deadline overrun counts in both unique_runs
            // and degraded.
            exec::EngineStats es = core->engine().stats();
            if (es.cache_hits + es.unique_runs + es.degraded -
                        es.deadline_flags !=
                    es.requests ||
                core->engine().cache().size() >
                    es.journal_loaded + es.unique_runs)
                accounting_ok = false;
            out << "cycle " << cycle << ": ops=" << cycle_ops
                << " requests=" << es.requests
                << " hits=" << es.cache_hits
                << " unique=" << es.unique_runs
                << " replayed=" << es.journal_loaded
                << " degraded=" << es.degraded << " journal="
                << (core->engine().journal() &&
                            core->engine().journal()->persistent()
                        ? "live"
                        : "lost")
                << " write_errors="
                << (core->engine().journal()
                        ? core->engine().journal()->writeErrors()
                        : 0)
                << "\n";
            core.reset(); // may leave a torn tail for the next load
        }
    } // chaos uninstalled

    // ---- settle: chaos-free pass so the journal ends complete ------
    PoolRun settle = runPool(opts.cache_dir, opts.jobs, "s");
    std::size_t settle_match = 0;
    for (std::size_t i = 0; i < kPool; ++i)
        if (!settle.canonical[i].empty() &&
            settle.canonical[i] == twin.canonical[i])
            ++settle_match;
    out << "settle: " << settle.ok << "/" << kPool << " ok, "
        << settle_match << "/" << kPool << " identical to twin\n";

    // ---- resume: a fresh engine must serve the pool warm ----------
    PoolRun resume = runPool(opts.cache_dir, opts.jobs, "r");
    double resume_ratio =
        resume.stats.requests > 0
            ? static_cast<double>(resume.stats.cache_hits) /
                  static_cast<double>(resume.stats.requests)
            : 0.0;

    exec::JournalVerifyReport jv =
        exec::Journal::verify(opts.cache_dir);

    if (opts.chaos.fs)
        out << "chaos.fs: short_writes="
            << metric("chaos.fs.short_writes")
            << " enospc=" << metric("chaos.fs.enospc")
            << " fsync_fail=" << metric("chaos.fs.fsync_fail")
            << " crashes=" << metric("chaos.fs.crashes")
            << " rename_fail=" << metric("chaos.fs.rename_fail")
            << "\n";
    if (opts.chaos.net)
        out << "chaos.net: fuzzed=" << metric("chaos.net.fuzzed")
            << " disconnects=" << metric("chaos.net.disconnects")
            << " epipe=" << metric("chaos.net.epipe")
            << " partial_sends="
            << metric("chaos.net.partial_sends") << "\n";
    if (opts.chaos.clock)
        out << "chaos.clock: jitter_events="
            << metric("chaos.clock.jitter_events") << "\n";

    // ---- invariants -------------------------------------------------
    std::size_t unanswered = 0;
    for (const OpRecord &op : ops) {
        if (op.fuzzed || dropped_gens.count(op.gen_id))
            continue; // lost to injected damage: excused
        if (!answered_ids.count(op.id))
            ++unanswered;
    }

    struct Invariant {
        std::string label;
        bool ok;
    };
    std::vector<Invariant> checks;
    checks.push_back(
        {"every surviving op answered (" +
             std::to_string(ops.size() - unanswered) + "/" +
             std::to_string(ops.size()) + ", " +
             std::to_string(drops) + " sessions dropped)",
         unanswered == 0});
    checks.push_back(
        {"surviving results byte-identical to clean twin (" +
             std::to_string(results_ok) + " ok, " +
             std::to_string(mismatches) + " mismatches)",
         mismatches == 0 && settle.ok == kPool &&
             settle_match == kPool});
    checks.push_back(
        {"journal replayable, committed count consistent (records=" +
             std::to_string(jv.valid_records) + " committed=" +
             std::to_string(jv.committed_records) +
             (jv.error.empty() ? "" : ", " + jv.error) + ")",
         jv.exists && !jv.corrupt() &&
             jv.committed_records == jv.valid_records &&
             jv.valid_records >= kPool});
    checks.push_back({"cache live/total accounting consistent",
                      accounting_ok});
    checks.push_back({"resume cache hit ratio " +
                          ratio2(resume_ratio) + " >= 0.90",
                      resume_ratio >= 0.9});
    const long fd_end = fdCount();
    checks.push_back(
        {"zero leaked fds (delta " +
             std::to_string(fd_baseline >= 0 && fd_end >= 0
                                ? fd_end - fd_baseline
                                : 0) +
             ")",
         fd_baseline < 0 || fd_end < 0 || fd_end == fd_baseline});

    std::size_t passed = 0;
    for (const Invariant &c : checks) {
        out << (c.ok ? "[PASS] " : "[FAIL] ") << c.label << "\n";
        if (c.ok)
            ++passed;
    }
    report.pass = passed == checks.size();
    out << (report.pass ? "SOAK PASS" : "SOAK FAIL") << " ("
        << passed << "/" << checks.size() << ")\n";
    report.text = out.str();
    return report;
}

} // namespace mlps::chaos
