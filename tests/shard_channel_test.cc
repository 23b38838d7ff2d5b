/**
 * @file
 * Property tests for the sharded network path (sim/shard.hh +
 * net/network.hh): cross-shard delivery must stay FIFO per (source,
 * destination) pair and timestamp-monotonic per pair, for any window
 * interleaving — the ordering contract the coherence protocol relies
 * on, now re-established across shard boundaries by the per-
 * destination ingress pumps.  Jitter requires the sequential
 * scheduler, and the Machine must enforce that fallback itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/machine.hh"
#include "net/network.hh"
#include "sim/rng.hh"
#include "sim/shard.hh"

namespace prism {
namespace {

/**
 * A miniature coordinator: the same window protocol as
 * Machine::runLoop, driven single-threaded (the protocol is
 * thread-agnostic; threads only add wall-clock overlap).
 */
class ShardHarness
{
  public:
    ShardHarness(unsigned shards, std::uint32_t num_nodes,
                 const Network::Params &p)
        : queues_(shards), net_(queues_[0], num_nodes, p),
          lookahead_(p.oneWayLatency + p.controlOccupancy)
    {
        std::vector<EventQueue *> qs;
        std::vector<std::uint32_t> shard_of(num_nodes);
        for (auto &q : queues_)
            qs.push_back(&q);
        for (std::uint32_t n = 0; n < num_nodes; ++n)
            shard_of[n] = n * shards / num_nodes;
        shardOf_ = shard_of;
        net_.configureSharding(qs, std::move(shard_of));
    }

    Network &net() { return net_; }
    EventQueue &queueOfNode(NodeId n) { return queues_[shardOf_[n]]; }

    /** Windows of [W, W+L) until every queue and the fabric are dry. */
    void
    run()
    {
        Tick w = 0;
        for (;;) {
            Tick min_next = kTickMax;
            for (auto &q : queues_)
                min_next = std::min(min_next, q.nextEventTick());
            if (min_next == kTickMax) {
                if (net_.shardTrafficQuiescent())
                    break;
            } else if (min_next > w) {
                w = min_next;
            }
            const Tick limit = w + lookahead_;
            for (auto &q : queues_) {
                while (q.nextEventTick() < limit)
                    q.runOne();
            }
            net_.drainShardChannel();
            net_.foldShardCounters();
        }
        net_.foldShardHistograms();
    }

  private:
    std::vector<EventQueue> queues_;
    std::vector<std::uint32_t> shardOf_;
    Network net_;
    Cycles lookahead_;
};

class ShardedNetwork
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(ShardedNetwork, FifoAndMonotonePerPairUnderRandomTraffic)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());
    constexpr std::uint32_t kNodes = 8;

    // One aggregate captured by pointer: event callbacks live in a
    // small inline buffer (kEventCallbackBytes), so captures must stay
    // lean.
    struct Ctx {
        ShardHarness h;
        std::map<std::pair<NodeId, NodeId>, std::uint64_t> nextSend;
        std::map<std::pair<NodeId, NodeId>, std::uint64_t> nextRecv;
        std::map<std::pair<NodeId, NodeId>, Tick> lastDeliver;
        int fifoViolations = 0;
        int monotoneViolations = 0;
    };
    Network::Params params;
    Ctx ctx{ShardHarness(shards, kNodes, params), {}, {}, {}, 0, 0};
    Ctx *c = &ctx;
    Rng rng(seed);

    // Randomized bursts: each burst schedules send events at staggered
    // ticks on the *source's* shard queue (the sharded-send contract:
    // send runs on the shard owning the source node).
    Tick base = 0;
    for (int burst = 0; burst < 50; ++burst) {
        const int n = 1 + static_cast<int>(rng.below(20));
        for (int i = 0; i < n; ++i) {
            const NodeId src = static_cast<NodeId>(rng.below(kNodes));
            const NodeId dst = static_cast<NodeId>(rng.below(kNodes));
            const MsgSize size = static_cast<MsgSize>(rng.below(3));
            const Tick at = base + rng.below(200);
            c->h.queueOfNode(src).schedule(at, [c, src, dst, size] {
                // FIFO position is claimed at send time: sends fire in
                // tick order, not in the order this loop staged them.
                const std::uint64_t seq =
                    c->nextSend[std::make_pair(src, dst)]++;
                c->h.net().send(src, dst, size, [c, src, dst, seq] {
                    const auto key = std::make_pair(src, dst);
                    if (c->nextRecv[key] != seq)
                        ++c->fifoViolations;
                    c->nextRecv[key] = seq + 1;
                    const Tick now = c->h.queueOfNode(dst).now();
                    if (now < c->lastDeliver[key])
                        ++c->monotoneViolations;
                    c->lastDeliver[key] = now;
                });
            });
        }
        base += rng.below(300);
    }
    c->h.run();

    EXPECT_EQ(c->fifoViolations, 0);
    EXPECT_EQ(c->monotoneViolations, 0);
    for (auto &[key, sent] : c->nextSend)
        EXPECT_EQ(c->nextRecv[key], sent)
            << "src " << key.first << " dst " << key.second;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShards, ShardedNetwork,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(2u, 4u, 8u)));

/** Identical traffic must deliver identically for any shard count. */
TEST(ShardedNetwork, DeliveryScheduleIsShardCountInvariant)
{
    constexpr std::uint32_t kNodes = 8;
    auto trace = [&](unsigned shards) {
        Network::Params params;
        ShardHarness h(shards, kNodes, params);
        std::vector<std::tuple<NodeId, NodeId, Tick>> deliveries;
        Rng rng(42);
        for (int i = 0; i < 400; ++i) {
            const NodeId src = static_cast<NodeId>(rng.below(kNodes));
            const NodeId dst = static_cast<NodeId>(rng.below(kNodes));
            const MsgSize size = static_cast<MsgSize>(rng.below(3));
            const Tick at = rng.below(4000);
            h.queueOfNode(src).schedule(at, [&h, &deliveries, src, dst,
                                             size] {
                h.net().send(src, dst, size, [&h, &deliveries, src, dst] {
                    deliveries.emplace_back(
                        src, dst, h.queueOfNode(dst).now());
                });
            });
        }
        h.run();
        // Normalize cross-pair interleavings: per-destination booking
        // order is the contract, global vector order is not.
        std::sort(deliveries.begin(), deliveries.end());
        return deliveries;
    };

    const auto two = trace(2);
    const auto four = trace(4);
    const auto eight = trace(8);
    EXPECT_EQ(two, four);
    EXPECT_EQ(four, eight);
}

/** Jitter fuzzing requires the sequential scheduler: Machine falls
 *  back to one shard and says so rather than silently losing the
 *  per-pair clamping that jitter relies on. */
TEST(ShardedNetwork, JitterForcesSequentialFallback)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.jobsIntra = 4;
    cfg.netJitterMax = 16;
    Machine m(cfg);
    EXPECT_EQ(m.numShards(), 1u);
}

/** Without jitter the knob takes effect, clamped to the node count. */
TEST(ShardedNetwork, JobsIntraShardsTheMachine)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.jobsIntra = 8;
    Machine m(cfg);
    EXPECT_EQ(m.numShards(), 4u);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(m.shardOfNode(n), n);
    EXPECT_GT(m.lookahead(), 0u);
}

} // namespace
} // namespace prism
