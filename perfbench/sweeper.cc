/**
 * @file
 * Host-speed benchmark sweeper for the PRISM simulator.
 *
 * Runs one benchmark workload's six-policy sweep (paperPolicies()) in
 * a closed loop, back to back, until --seconds have elapsed (at least
 * two sweeps, so repeats can be compared).  Every policy run goes
 * through the public API only:
 *
 *   AppSpec::make -> Machine::Machine -> Workload::setup ->
 *   Machine::run -> Machine::report -> teardown
 *
 * with the SCOMA-70 caps taken from the SCOMA calibration run exactly
 * as runPolicySweep does (calibrationConfig / scoma70Caps /
 * policyConfig).  Each run starts from a fresh machine, so caches
 * start empty as they do for users.
 *
 * Output is one compact JSON object per line on stdout (provenance,
 * one "run" line per policy run, an "end" line); perfbench/run.py
 * turns those into metrics and checks them.
 * With --trace-out the sweeper also keeps spans around the public
 * calls in memory and writes them at exit as Chrome trace-event JSON
 * (loadable in Perfetto, like PRISM_TRACE output).  In that mode it
 * alternates untraced and traced sweeps so the tracing overhead can be
 * read from one invocation.
 *
 * --self-test checks that the counter fold and the correctness digest
 * ignore host-only report fields and catch a single perturbed counter.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/machine.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "workload/apps.hh"
#include "workload/experiment.hh"
#include "workload/kvstore.hh"
#include "workload/radix.hh"

namespace {

using namespace prism;
using Clock = std::chrono::steady_clock;

/** Wall-clock limit of one policy run (ctor through teardown). */
constexpr double kRunLimitS = 60.0;
/** Requests of the kv_a_128x8 workload (16 per processor). */
constexpr std::uint64_t kKvA128Requests = 1ULL << 14;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- Workloads -----------------------------------------------------------

/** One benchmark workload: a machine and the application it runs. */
struct BenchWorkload {
    std::string name;
    MachineConfig base;
    AppSpec app;
};

std::optional<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    MachineConfig base; // the paper's 8x4 machine
    base.seed = seed;
    if (name == "radix_8x4") {
        // The fig7 small-scale Radix data set (standardApps(Small)),
        // keys drawn from the benchmark seed.
        RadixWorkload::Params p{1u << 16, 1024, 30, seed};
        return BenchWorkload{name, base, AppSpec{"Radix", [p] {
                                 return std::make_unique<RadixWorkload>(p);
                             }}};
    }
    if (name == "kv_b_8x4" || name == "kv_a_128x8") {
        KvStoreWorkload::Params p = kvParamsFor(AppScale::Small);
        p.theta = 0.99;
        p.seed = seed;
        if (name == "kv_b_8x4") {
            p.mix = KvMix::B; // as fig7 runs KV
        } else {
            p.mix = KvMix::A;
            p.requests = kKvA128Requests;
            // One shard: sharded runs spread too widely to time on a
            // 4-thread host.  Not gated: its LANUMA run livelocks at
            // some seeds (BENCHMARK.md, "Known defect").
            base.numNodes = 128;
            base.procsPerNode = 8;
        }
        return BenchWorkload{name, base, AppSpec{"KV", [p] {
                                 return std::make_unique<KvStoreWorkload>(p);
                             }}};
    }
    return std::nullopt;
}

// --- Span recorder -----------------------------------------------------

/**
 * Spans kept in memory and written at exit as Chrome trace-event JSON.
 * A span's parent is the span that caused it: public call -> policy
 * run -> sweep.
 */
class SpanRecorder
{
  public:
    static constexpr std::uint32_t kNoParent = 0;

    explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

    /** Record a finished span; returns its id. */
    std::uint32_t
    add(std::string name, const char *cat, Clock::time_point t0,
        Clock::time_point t1, std::uint32_t parent)
    {
        spans_.push_back(Span{std::move(name), cat, t0, t1, parent});
        return static_cast<std::uint32_t>(spans_.size());
    }

    /** Start a span that encloses later ones; close() ends it. */
    std::uint32_t
    open(std::string name, const char *cat, std::uint32_t parent)
    {
        const auto now = Clock::now();
        return add(std::move(name), cat, now, now, parent);
    }

    void close(std::uint32_t id) { spans_[id - 1].t1 = Clock::now(); }

    /** Write every span; @retval false when @p path can't be opened. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        JsonWriter w(os);
        w.beginObject();
        w.key("traceEvents");
        w.beginArray();
        w.beginObject();
        w.kv("name", "process_name");
        w.kv("ph", "M");
        w.kv("pid", 1);
        w.key("args");
        w.beginObject();
        w.kv("name", "perfbench");
        w.endObject();
        w.endObject();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.kv("name", std::string_view(s.name));
            w.kv("cat", s.cat);
            w.kv("ph", "X");
            w.kv("pid", 1);
            w.kv("tid", 1);
            w.kv("ts", micros(s.t0));
            w.kv("dur", secondsBetween(s.t0, s.t1) * 1e6);
            w.key("args");
            w.beginObject();
            w.kv("id", static_cast<std::uint64_t>(i + 1));
            w.kv("parent", static_cast<std::uint64_t>(s.parent));
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.kv("displayTimeUnit", "ms");
        w.endObject();
        os << "\n";
        return static_cast<bool>(os);
    }

  private:
    struct Span {
        std::string name;
        const char *cat;
        Clock::time_point t0;
        Clock::time_point t1;
        std::uint32_t parent;
    };

    double micros(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t) * 1e6;
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// --- Output lines ------------------------------------------------------

/** One compact JSON object, printed as a single stdout line. */
class Line
{
  public:
    explicit Line(const char *type) { str("type", type); }

    Line &
    str(const char *k, std::string_view v)
    {
        key(k);
        s_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                s_ += '\\';
            s_ += c;
        }
        s_ += '"';
        return *this;
    }

    Line &
    num(const char *k, double v)
    {
        key(k);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        s_ += buf;
        return *this;
    }

    Line &
    num(const char *k, std::uint64_t v)
    {
        key(k);
        s_ += std::to_string(v);
        return *this;
    }

    Line &
    flag(const char *k, bool v)
    {
        key(k);
        s_ += v ? "true" : "false";
        return *this;
    }

    Line &
    obj(const char *k, const std::map<std::string, double> &m)
    {
        key(k);
        Line inner;
        for (const auto &[name, v] : m)
            inner.num(name.c_str(), v);
        s_ += inner.s_.empty() ? "{}" : inner.s_ + '}';
        return *this;
    }

    void
    emit()
    {
        std::printf("%s}\n", s_.c_str());
        std::fflush(stdout);
    }

  private:
    Line() = default;

    void
    key(const char *k)
    {
        s_ += s_.empty() ? "{" : ",";
        s_ += '"';
        s_ += k;
        s_ += "\":";
    }

    std::string s_;
};

// --- Counter fold and correctness digest ---------------------------------

struct FoldRule {
    const char *from;
    const char *to;
};

/** Per-node counters ("component.name") -> per-layer names. */
constexpr FoldRule kNodeFold[] = {
    {"ctrl.remoteMisses", "coherence.remote_misses"},
    {"ctrl.upgrades", "coherence.upgrades"},
    {"ctrl.invalsSent", "coherence.invals_sent"},
    {"ctrl.retries", "coherence.retries"},
    {"ctrl.nacksSent", "coherence.nacks_sent"},
    {"kernel.faults", "os.faults"},
    {"kernel.clientPageOuts", "os.client_pageouts"},
    {"kernel.conversionsToLaNuma", "os.conversions_to_lanuma"},
};

/** Per-processor counters (proc.p<N>.<name>) -> mem.* names. */
constexpr FoldRule kProcFold[] = {
    {"loads", "mem.refs"},
    {"stores", "mem.refs"},
    {"l1Hits", "mem.l1_hits"},
    {"l2Misses", "mem.l2_misses"},
    {"tlbRefills", "mem.tlb_refills"},
};

/** Machine-wide counters -> per-layer names. */
constexpr FoldRule kMachineFold[] = {
    {"net.messages", "net.messages"},
    {"net.trafficProxy", "net.traffic_proxy"},
};

/** Latency histograms (component.name) -> p99 in simulated cycles. */
constexpr FoldRule kHistogramFold[] = {
    {"ctrl.latency.read2", "coherence.read2_p99_cycles"},
    {"ctrl.latency.upgrade", "coherence.upgrade_p99_cycles"},
    {"kernel.latency.pageIn", "os.pagein_p99_cycles"},
    {"net.latency.data", "net.data_p99_cycles"},
    {"workload.kv.read.latency", "workload.kv_read_p99_cycles"},
    {"workload.kv.update.latency", "workload.kv_update_p99_cycles"},
};

/**
 * Fold one run report's simulated counters into per-layer names.
 * Reads only counters and histograms, never host-only fields
 * (generatedAt, footprint gauges).  Every name is present, 0 when the
 * report has no such counter (e.g. KV latencies in a Radix run).
 */
std::map<std::string, double>
foldCounters(const RunReport &r)
{
    std::map<std::string, double> out;
    for (const FoldRule &f : kNodeFold)
        out[f.to] = 0;
    for (const FoldRule &f : kProcFold)
        out[f.to] = 0;
    for (const FoldRule &f : kMachineFold)
        out[f.to] = 0;
    for (const FoldRule &f : kHistogramFold)
        out[f.to] = 0;

    constexpr std::string_view kProc = "proc.p";
    for (const auto &n : r.nodes) {
        for (const auto &c : n.counters) {
            const std::string_view name = c.name;
            if (name.substr(0, kProc.size()) == kProc) {
                const auto dot = name.find('.', kProc.size());
                const std::string_view field = name.substr(dot + 1);
                for (const FoldRule &f : kProcFold)
                    if (field == f.from)
                        out[f.to] += static_cast<double>(c.value);
                continue;
            }
            for (const FoldRule &f : kNodeFold)
                if (name == f.from)
                    out[f.to] += static_cast<double>(c.value);
        }
    }
    for (const auto &c : r.machineCounters)
        for (const FoldRule &f : kMachineFold)
            if (c.name == f.from)
                out[f.to] += static_cast<double>(c.value);
    for (const auto &h : r.histograms) {
        const std::string name = h.component + "." + h.name;
        for (const FoldRule &f : kHistogramFold)
            if (name == f.from)
                out[f.to] = h.p99;
    }
    return out;
}

/** The paper-table metrics of one run (RunMetrics, scalar fields). */
std::map<std::string, double>
paperMetrics(const RunMetrics &m)
{
    return {
        {"execCycles", static_cast<double>(m.execCycles)},
        {"totalCycles", static_cast<double>(m.totalCycles)},
        {"remoteMisses", static_cast<double>(m.remoteMisses)},
        {"clientPageOuts", static_cast<double>(m.clientPageOuts)},
        {"upgrades", static_cast<double>(m.upgrades)},
        {"invalidations", static_cast<double>(m.invalidations)},
        {"networkMessages", static_cast<double>(m.networkMessages)},
        {"pageFaults", static_cast<double>(m.pageFaults)},
        {"framesAllocated", static_cast<double>(m.framesAllocated)},
        {"avgUtilization", m.avgUtilization},
        {"references", static_cast<double>(m.references)},
    };
}

bool
isHostOnlyGauge(const std::string &name)
{
    return name.rfind("footprint.", 0) == 0;
}

/**
 * FNV-1a digest of the run report with its host-only fields
 * (generatedAt, footprint gauges) removed: paper-table metrics, every
 * counter and gauge, and every histogram's bucket counts.
 */
std::uint64_t
reportDigest(RunReport r)
{
    r.generatedAt.clear();
    for (auto &n : r.nodes)
        std::erase_if(n.gauges, [](const RunReport::GaugeValue &g) {
            return isHostOnlyGauge(g.name);
        });
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : r.toJson()) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Host memory the simulator's directory uses: max over nodes. */
double
maxDirBytes(const RunReport &r)
{
    double best = 0;
    for (const auto &n : r.nodes)
        for (const auto &g : n.gauges)
            if (g.name == "footprint.dirBytes")
                best = std::max(best, g.value);
    return best;
}

// --- Watchdog ------------------------------------------------------------

/**
 * Ends the process with a diagnosis when one policy run exceeds
 * kRunLimitS, so a hung run names itself instead of hanging the
 * benchmark.
 */
class Watchdog
{
  public:
    Watchdog(std::string workload, std::uint64_t seed)
        : workload_(std::move(workload)), seed_(seed),
          thread_([this] { loop(); })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    void
    arm(const char *policy)
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            policy_ = policy;
            deadline_ = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kRunLimitS));
            armed_ = true;
            ++gen_;
        }
        cv_.notify_all();
    }

    void
    disarm()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            armed_ = false;
        }
        cv_.notify_all();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        while (!stop_) {
            if (!armed_) {
                cv_.wait(lk);
                continue;
            }
            const std::uint64_t gen = gen_;
            if (!cv_.wait_until(lk, deadline_, [&] {
                    return stop_ || !armed_ || gen_ != gen;
                })) {
                Line("timeout")
                    .str("workload", workload_)
                    .str("policy", policy_)
                    .num("seed", seed_)
                    .num("limit_s", kRunLimitS)
                    .emit();
                std::fprintf(stderr,
                             "perfbench: run exceeded %.0f s: workload=%s "
                             "policy=%s seed=%llu\n",
                             kRunLimitS, workload_.c_str(), policy_,
                             static_cast<unsigned long long>(seed_));
                std::fflush(stderr);
                std::_Exit(124);
            }
        }
    }

    const std::string workload_;
    const std::uint64_t seed_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    bool armed_ = false;
    std::uint64_t gen_ = 0;
    const char *policy_ = "";
    Clock::time_point deadline_{};
    std::thread thread_; // last: loop() uses every member above
};

// --- Policy runs and sweeps ----------------------------------------------

/** Host time of one policy run, split at the public calls. */
struct PolicyRun {
    double ctorS = 0;     //!< Machine::Machine
    double setupS = 0;    //!< AppSpec::make + Workload::setup
    double runS = 0;      //!< Machine::run
    double reportS = 0;   //!< Machine::report
    double teardownS = 0; //!< ~Machine, ~Workload
    std::uint64_t events = 0;
    RunReport report;

    double wallS() const
    {
        return ctorS + setupS + runS + reportS + teardownS;
    }
};

PolicyRun
runPolicy(const BenchWorkload &bw, const MachineConfig &cfg,
          SpanRecorder *spans, std::uint32_t sweep_span)
{
    PolicyRun r;
    const char *policy = policyName(cfg.policy);
    const std::uint32_t span =
        spans ? spans->open(policy, "policy", sweep_span) : 0;

    const auto t0 = Clock::now();
    auto m = std::make_unique<Machine>(cfg);
    const auto t1 = Clock::now();
    std::unique_ptr<Workload> w = bw.app.make();
    w->setup(*m);
    const auto t2 = Clock::now();
    const std::uint32_t n = m->numProcs();
    m->run([&w, n](Proc &p) { return w->body(p, p.id(), n); });
    const auto t3 = Clock::now();
    r.events = m->eventsExecuted();
    r.report = m->report();
    const auto t4 = Clock::now();
    m.reset(); // the machine first, as runPolicySweep's runs do
    w.reset();
    const auto t5 = Clock::now();

    r.ctorS = secondsBetween(t0, t1);
    r.setupS = secondsBetween(t1, t2);
    r.runS = secondsBetween(t2, t3);
    r.reportS = secondsBetween(t3, t4);
    r.teardownS = secondsBetween(t4, t5);
    if (spans) {
        spans->add("Machine::Machine", "core", t0, t1, span);
        spans->add("Workload::setup", "workload", t1, t2, span);
        spans->add("Machine::run", "core", t2, t3, span);
        spans->add("Machine::report", "obs", t3, t4, span);
        spans->add("teardown", "core", t4, t5, span);
        spans->close(span);
    }
    return r;
}

void
emitRun(const PolicyRun &r, std::uint32_t sweep, bool traced,
        const char *policy)
{
    Line("run")
        .num("sweep", std::uint64_t{sweep})
        .flag("traced", traced)
        .str("policy", policy)
        .num("ctor_s", r.ctorS)
        .num("setup_s", r.setupS)
        .num("run_s", r.runS)
        .num("report_s", r.reportS)
        .num("teardown_s", r.teardownS)
        .num("wall_s", r.wallS())
        .num("events", r.events)
        .num("dir_bytes_max", maxDirBytes(r.report))
        .str("digest", hex(reportDigest(r.report)))
        .obj("paper", paperMetrics(r.report.metrics))
        .obj("fold", foldCounters(r.report))
        .emit();
}

/**
 * One six-policy sweep.  Each run's line is emitted (and its report
 * dropped) as soon as it finishes, outside the run's timed calls.
 */
void
runSweep(const BenchWorkload &bw, std::uint32_t index, SpanRecorder *spans,
         Watchdog &dog)
{
    const std::uint32_t span =
        spans ? spans->open("sweep " + std::to_string(index), "bench",
                            SpanRecorder::kNoParent)
              : 0;
    auto one = [&](const MachineConfig &cfg) {
        dog.arm(policyName(cfg.policy));
        PolicyRun r = runPolicy(bw, cfg, spans, span);
        dog.disarm();
        return r;
    };

    // SCOMA comes first: it is also the calibration run (unbounded
    // page cache) whose peaks set the capped policies' caps.
    std::vector<std::uint64_t> caps;
    for (PolicyKind pk : paperPolicies()) {
        const bool calibration = pk == PolicyKind::Scoma;
        PolicyRun r = one(calibration ? calibrationConfig(bw.base)
                                      : policyConfig(bw.base, pk, caps));
        if (calibration)
            caps = scoma70Caps(r.report.metrics, 0.70);
        emitRun(r, index, spans != nullptr, policyName(pk));
    }
    if (spans)
        spans->close(span);
}

// --- Build guard -------------------------------------------------------

/** Why this binary must not be timed, or "" when it may be. */
std::string
buildProblem()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return "built with a sanitizer";
#endif
#endif
#ifndef __OPTIMIZE__
    return "built without optimization";
#endif
#ifndef NDEBUG
    return "built with assertions enabled (NDEBUG unset)";
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
               "', not Release";
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize"))
        return "compiler flags enable a sanitizer";
    return "";
}

// --- Self-test ----------------------------------------------------------

/**
 * Check that fold and digest ignore host-only fields and that the
 * digest (and, for folded counters, the fold) catches a single counter
 * perturbed by one.  Uses a tiny KV run so the report has per-proc,
 * controller, kernel, network and workload entries.
 */
int
selfTest()
{
    MachineConfig cfg;
    KvStoreWorkload::Params p = kvParamsFor(AppScale::Tiny);
    p.mix = KvMix::A;
    const BenchWorkload bw{
        "self-test", cfg, AppSpec{"KV", [p] {
            return std::make_unique<KvStoreWorkload>(p);
        }}};
    const RunReport base = runPolicy(bw, cfg, nullptr, 0).report;
    const std::uint64_t d0 = reportDigest(base);
    const auto f0 = foldCounters(base);

    int checks = 0;
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        ++checks;
        if (!ok) {
            ++failures;
            std::printf("self-test FAIL: %s\n", what);
        }
    };

    expect(reportDigest(runPolicy(bw, cfg, nullptr, 0).report) == d0,
           "a repeated run has the same digest");
    {
        RunReport r = base;
        r.generatedAt = "1970-01-01T00:00:00Z";
        int touched = 0;
        for (auto &n : r.nodes)
            for (auto &g : n.gauges)
                if (isHostOnlyGauge(g.name)) {
                    g.value += 1;
                    ++touched;
                }
        expect(touched > 0, "report has footprint gauges to perturb");
        expect(reportDigest(r) == d0, "digest ignores host-only fields");
        expect(foldCounters(r) == f0, "fold ignores host-only fields");
    }

    // Bump one counter by one; the digest must change, and the fold
    // too when the counter is one it folds.
    auto perturbNode = [&](const char *name, bool folded) {
        RunReport r = base;
        bool found = false;
        for (auto &c : r.nodes[r.nodes.size() / 2].counters)
            if (c.name == name) {
                c.value += 1;
                found = true;
            }
        const std::string what = std::string("perturbed ") + name;
        expect(found, (what + ": counter exists").c_str());
        expect(reportDigest(r) != d0, (what + ": digest").c_str());
        expect((foldCounters(r) != f0) == folded,
               (what + ": fold").c_str());
    };
    perturbNode("proc.p1.loads", true);
    perturbNode("proc.p1.tlbRefills", true);
    perturbNode("ctrl.invalsSent", true);
    perturbNode("kernel.clientPageOuts", true);
    perturbNode("proc.p1.l2Hits", false);
    perturbNode("ctrl.fetchesServed", false);
    {
        RunReport r = base;
        r.machineCounters.at(0).value += 1;
        expect(reportDigest(r) != d0, "perturbed machine counter: digest");
        expect(foldCounters(r) != f0, "perturbed machine counter: fold");
    }
    {
        RunReport r = base;
        bool found = false;
        for (auto &h : r.histograms)
            if (h.component == "workload" && h.count > 0 && !found) {
                ++h.counts.back();
                found = true;
            }
        expect(found, "report has a workload histogram");
        expect(reportDigest(r) != d0, "perturbed histogram bucket: digest");
    }
    {
        RunReport r = base;
        r.metrics.execCycles += 1;
        expect(reportDigest(r) != d0, "perturbed paper metric: digest");
    }
    std::printf("self-test: %d checks, %d failed\n", checks, failures);
    return failures == 0 ? 0 : 1;
}

// --- Main -----------------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_sweeper: %s\n"
                 "usage: perfbench_sweeper --workload <name> --seed <n> "
                 "--seconds <s> [--trace-out <path>]\n"
                 "       perfbench_sweeper --self-test\n"
                 "workloads: radix_8x4 kv_b_8x4 kv_a_128x8\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        usage((std::string("bad value for ") + flag + ": '" + s + "'")
                  .c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1;
    std::string trace_out;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = parseCount("--seed", v);
        else if (a == "--seconds")
            seconds = static_cast<double>(parseCount("--seconds", v));
        else if (a == "--trace-out")
            trace_out = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (self_test)
        return selfTest();

    const std::string problem = buildProblem();
    if (!problem.empty()) {
        std::fprintf(stderr, "perfbench_sweeper: refusing to time: %s\n",
                     problem.c_str());
        return 3;
    }
    if (seconds < 0)
        usage("--seconds is required");
    const std::optional<BenchWorkload> bw = makeWorkload(workload, seed);
    if (!bw)
        usage(("unknown workload '" + workload + "'").c_str());

    Line("provenance")
        .str("workload", bw->name)
        .num("seed", seed)
        .num("nodes", std::uint64_t{bw->base.numNodes})
        .num("procs_per_node", std::uint64_t{bw->base.procsPerNode})
        .num("shards", std::uint64_t{bw->base.jobsIntra})
        .num("nproc", std::uint64_t{std::thread::hardware_concurrency()})
#ifdef __clang__
        .str("compiler", "clang " __clang_version__)
#else
        .str("compiler", "gcc " __VERSION__)
#endif
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .emit();

    const auto start = Clock::now();
    std::unique_ptr<SpanRecorder> spans;
    if (!trace_out.empty())
        spans = std::make_unique<SpanRecorder>(start);
    std::uint32_t sweeps = 0;
    {
        Watchdog dog(bw->name, seed);
        // Traced mode alternates untraced and traced sweeps and stops
        // after a traced one, so both sides have the same count.
        do {
            const bool traced = spans && sweeps % 2 == 1;
            runSweep(*bw, sweeps, traced ? spans.get() : nullptr, dog);
            ++sweeps;
        } while (sweeps < 2 || (spans && sweeps % 2 == 1) ||
                 secondsBetween(start, Clock::now()) < seconds);
    }
    if (spans && !spans->write(trace_out)) {
        std::fprintf(stderr, "perfbench_sweeper: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Line("end")
        .num("sweeps", std::uint64_t{sweeps})
        .num("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss))
        .emit();
    return 0;
}
