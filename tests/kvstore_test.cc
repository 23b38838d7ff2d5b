/**
 * @file
 * KV workload tests: Zipfian sampler statistics, node-local partition
 * routing, determinism (rerun and --jobs-intra invariance), and the
 * exec == record == replay contract at tiny scale.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "sim/rng.hh"
#include "workload/apps.hh"
#include "workload/experiment.hh"
#include "workload/kvstore.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

MachineConfig
smallCfg(unsigned jobs_intra = 1)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.jobsIntra = jobs_intra;
    return cfg;
}

KvStoreWorkload::Params
tinyParams()
{
    KvStoreWorkload::Params p = kvParamsFor(AppScale::Tiny);
    return p;
}

AppSpec
kvSpec(const KvStoreWorkload::Params &p, const std::string &name = "KV")
{
    return AppSpec{name,
                   [p] { return std::make_unique<KvStoreWorkload>(p); }};
}

/** Report JSON with the wall-clock timestamp cleared. */
std::string
reportJson(const RunReport &r)
{
    RunReport s = r;
    s.generatedAt.clear();
    s.frontend.clear();
    s.traceWorkload.clear();
    s.traceOps = 0;
    std::ostringstream os;
    s.writeJson(os);
    return os.str();
}

// --- ZipfianSampler --------------------------------------------------

TEST(Zipfian, RanksStayInBounds)
{
    const ZipfianSampler z(1024, 0.99);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(z(rng), 1024u);
}

TEST(Zipfian, SameSeedSameSequence)
{
    const ZipfianSampler z(4096, 0.9);
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(z(a), z(b));
}

/**
 * Rank-frequency slope sanity: under Zipf(theta) the frequency of
 * rank r is proportional to 1/(r+1)^theta, so f(0)/f(9) should be
 * close to 10^theta.  With theta = 0.99 and 200k draws the ratio is
 * ~9.8; accept a generous band so the test is seed-robust.
 */
TEST(Zipfian, RankFrequencySlopeMatchesTheta)
{
    const std::uint64_t n = 1024;
    const double theta = 0.99;
    const ZipfianSampler z(n, theta);
    Rng rng(2026);
    std::vector<std::uint64_t> freq(n, 0);
    const int draws = 200000;
    for (int i = 0; i < draws; ++i)
        ++freq[z(rng)];

    // The head dominates: rank 0 alone holds a double-digit share.
    EXPECT_GT(freq[0], static_cast<std::uint64_t>(draws / 20));
    // Monotone-ish head (allow sampling noise only far down the tail).
    EXPECT_GT(freq[0], freq[1]);
    EXPECT_GT(freq[1], freq[3]);
    EXPECT_GT(freq[3], freq[9]);

    const double ratio = static_cast<double>(freq[0]) /
                         static_cast<double>(freq[9]);
    const double want = std::pow(10.0, theta); // ~9.77
    EXPECT_GT(ratio, want * 0.7);
    EXPECT_LT(ratio, want * 1.4);
}

TEST(Zipfian, ThetaZeroIsUniform)
{
    const std::uint64_t n = 256;
    const ZipfianSampler z(n, 0.0);
    Rng rng(11);
    std::vector<std::uint64_t> freq(n, 0);
    const int draws = 256000; // 1000 per rank in expectation
    for (int i = 0; i < draws; ++i)
        ++freq[z(rng)];
    for (std::uint64_t r = 0; r < n; ++r) {
        EXPECT_GT(freq[r], 800u) << "rank " << r;
        EXPECT_LT(freq[r], 1250u) << "rank " << r;
    }
}

// --- Partition routing -----------------------------------------------

/**
 * The whole point of the layout: every byte of partition p (index and
 * value regions alike) must live on a page whose static home is node
 * p, so a request routed to partition `key % nodes` touches only
 * node-local memory when it runs on that node.
 */
TEST(KvStore, PartitionPagesHomeOnTheirOwnNode)
{
    Machine m(smallCfg());
    KvStoreWorkload::Params p = tinyParams();
    KvStoreWorkload w(p);
    w.setup(m);

    for (std::uint64_t key = 0; key < p.keys; ++key) {
        const std::uint32_t part = w.partOf(key);
        EXPECT_EQ(part, key % smallCfg().numNodes);
        const GPage idx_page = w.gpageOf(w.indexAddr(key));
        const GPage val_page = w.gpageOf(w.valueAddr(key));
        ASSERT_EQ(m.config().staticHomeOf(idx_page), part) << "key " << key;
        ASSERT_EQ(m.config().staticHomeOf(val_page), part) << "key " << key;
    }
}

TEST(KvStore, DistinctKeysGetDistinctValueSlots)
{
    Machine m(smallCfg());
    KvStoreWorkload::Params p = tinyParams();
    KvStoreWorkload w(p);
    w.setup(m);

    std::set<std::uint64_t> index_slots, value_slots;
    for (std::uint64_t key = 0; key < p.keys; ++key) {
        EXPECT_TRUE(index_slots.insert(w.indexAddr(key).raw).second)
            << "index slot aliased at key " << key;
        EXPECT_TRUE(value_slots.insert(w.valueAddr(key).raw).second)
            << "value slot aliased at key " << key;
    }
}

// --- Determinism -----------------------------------------------------

TEST(KvStore, RerunsAreByteIdentical)
{
    const AppSpec app = kvSpec(tinyParams());
    RunReport a, b;
    runOnce(RunSpec{.machine = smallCfg()}, app, &a);
    runOnce(RunSpec{.machine = smallCfg()}, app, &b);
    EXPECT_EQ(reportJson(a), reportJson(b));
}

/**
 * Sharded-event-loop contract for KV (same as shard_determinism_test
 * pins for Radix): rerun-stable at every shard count, and
 * byte-identical across *sharded* counts.  The sequential scheduler
 * keeps its own pre-sharding message serialization, so jobs-intra 1
 * is rerun-compared but deliberately not byte-compared to the sharded
 * runs (docs/PERFORMANCE.md "Sharded scheduler").
 */
TEST(KvStore, JobsIntraRunsAreDeterministic)
{
    const AppSpec app = kvSpec(tinyParams());
    RunReport s2, s4, s4b, seq, seqb;
    runOnce(RunSpec{.machine = smallCfg(2)}, app, &s2);
    runOnce(RunSpec{.machine = smallCfg(4)}, app, &s4);
    runOnce(RunSpec{.machine = smallCfg(4)}, app, &s4b);
    runOnce(RunSpec{.machine = smallCfg(1)}, app, &seq);
    runOnce(RunSpec{.machine = smallCfg(1)}, app, &seqb);

    EXPECT_EQ(reportJson(s2), reportJson(s4)) << "jobsIntra 2 vs 4";
    EXPECT_EQ(reportJson(s4), reportJson(s4b)) << "jobsIntra 4 rerun";
    EXPECT_EQ(reportJson(seq), reportJson(seqb)) << "jobsIntra 1 rerun";
}

TEST(KvStore, ReportCarriesPerOpTypeHistograms)
{
    KvStoreWorkload::Params p = tinyParams();
    p.mix = KvMix::A; // reads and updates, no inserts/scans
    RunReport r;
    runOnce(RunSpec{.machine = smallCfg()}, kvSpec(p), &r);

    auto find = [&](const char *name) -> const
        RunReport::HistogramSummary * {
        for (const auto &h : r.histograms) {
            if (h.component == "workload" && h.name == name)
                return &h;
        }
        return nullptr;
    };
    const auto *read = find("kv.read.latency");
    const auto *update = find("kv.update.latency");
    const auto *insert = find("kv.insert.latency");
    const auto *scan = find("kv.scan.latency");
    ASSERT_NE(read, nullptr);
    ASSERT_NE(update, nullptr);
    ASSERT_NE(insert, nullptr);
    ASSERT_NE(scan, nullptr);

    EXPECT_GT(read->count, 0u);
    EXPECT_GT(update->count, 0u);
    EXPECT_LE(read->p50, read->p99);
    EXPECT_GT(read->p50, 0.0);

    // Mix A issues no inserts or scans: those histograms must appear
    // as explicit zero-count entries with zero quantiles — never NaN
    // or interpolation garbage (the Histogram edge-case regressions).
    EXPECT_EQ(insert->count, 0u);
    EXPECT_EQ(insert->p99, 0.0);
    EXPECT_EQ(scan->count, 0u);
    EXPECT_EQ(scan->p99, 0.0);
}

TEST(KvStore, ChurnRotatesTheHotSet)
{
    // With churn the same request index maps popular ranks onto
    // different keys across epochs; the run must still complete and
    // stay deterministic.
    KvStoreWorkload::Params p = tinyParams();
    p.churnPeriod = 64;
    RunReport a, b;
    runOnce(RunSpec{.machine = smallCfg()}, kvSpec(p), &a);
    runOnce(RunSpec{.machine = smallCfg()}, kvSpec(p), &b);
    EXPECT_EQ(reportJson(a), reportJson(b));
    EXPECT_GT(a.metrics.references, 0u);
}

// --- Frontend contract ----------------------------------------------

/**
 * exec == record == replay for KV at the recorded configuration
 * (docs/TRACE.md).  KV's reference stream is timing-dependent (the
 * open-loop generator idle-pads to its arrival schedule), so only
 * same-config replay is exact — which is exactly what this pins.
 * Workload histograms are compared on the exec/record side only; a
 * replay has none (the trace frontend does not run the KV body).
 */
TEST(KvStore, ExecRecordReplayAgree)
{
    const std::string path = testing::TempDir() + "kvstore_rrr.ptrace";
    const AppSpec app = kvSpec(tinyParams());

    RunReport exec_r, rec_r, rep_r;
    runOnce(RunSpec{.machine = smallCfg()}, app, &exec_r);
    runOnce(RunSpec{.machine = smallCfg(),
                    .frontend = FrontendKind::Record,
                    .traceFile = path},
            app, &rec_r);
    runOnce(RunSpec{.machine = smallCfg(),
                    .frontend = FrontendKind::Replay,
                    .traceFile = path},
            app, &rep_r);

    // Recording must not perturb the run at all (histograms included).
    EXPECT_EQ(reportJson(rec_r), reportJson(exec_r));

    // Replay matches once the workload-level histograms are dropped.
    auto core = [](const RunReport &r) {
        RunReport s = r;
        std::erase_if(s.histograms, [](const auto &h) {
            return h.component == "workload";
        });
        return reportJson(s);
    };
    EXPECT_EQ(core(rep_r), core(exec_r));
    EXPECT_EQ(rep_r.traceOps, rec_r.traceOps);
    EXPECT_GT(rep_r.traceOps, 0u);
}

} // namespace
} // namespace prism
