// Random-drop gateway discipline: victim selection, counters, conservation,
// and front-of-queue protection for the in-service packet.
#include <gtest/gtest.h>

#include "net/port.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace tcpdyn::net {
namespace {

Packet pkt(std::uint32_t seq, PacketKind kind = PacketKind::kData) {
  Packet p;
  p.kind = kind;
  p.seq = seq;
  p.size_bytes = kind == PacketKind::kData ? 500 : 50;
  return p;
}

TEST(RandomDrop, AdmitsArrivalWhenVictimIsQueued) {
  DropTailQueue q(QueueLimit::of(3), DropPolicy::kRandomDrop, 42);
  for (std::uint32_t i = 0; i < 3; ++i) ASSERT_TRUE(q.offer(pkt(i)).accepted);
  // Offer packets into a full queue: every offer drops exactly one packet
  // (arrival or victim) and the queue stays at capacity.
  for (std::uint32_t i = 3; i < 40; ++i) {
    const EnqueueResult r = q.offer(pkt(i));
    ASSERT_TRUE(r.dropped.has_value());
    EXPECT_EQ(q.length(), 3u);
  }
  EXPECT_EQ(q.counters().drops, 37u);
}

TEST(RandomDrop, SometimesDropsArrivalSometimesVictim) {
  DropTailQueue q(QueueLimit::of(5), DropPolicy::kRandomDrop, 7);
  for (std::uint32_t i = 0; i < 5; ++i) ASSERT_TRUE(q.offer(pkt(i)).accepted);
  int arrival_dropped = 0, victim_dropped = 0;
  for (std::uint32_t i = 5; i < 200; ++i) {
    const EnqueueResult r = q.offer(pkt(i));
    if (r.accepted) {
      ++victim_dropped;
      EXPECT_NE(r.dropped->seq, i);  // victim was an occupant
    } else {
      ++arrival_dropped;
      EXPECT_EQ(r.dropped->seq, i);
    }
  }
  // With 6 candidates per offer, the arrival is the victim ~1/6 of the time.
  EXPECT_GT(victim_dropped, 120);
  EXPECT_GT(arrival_dropped, 5);
}

TEST(RandomDrop, ProtectFrontSparesHead) {
  DropTailQueue q(QueueLimit::of(2), DropPolicy::kRandomDrop, 3);
  ASSERT_TRUE(q.offer(pkt(100)).accepted);
  ASSERT_TRUE(q.offer(pkt(101)).accepted);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const EnqueueResult r = q.offer(pkt(i), /*protect_front=*/true);
    ASSERT_TRUE(r.dropped.has_value());
    ASSERT_EQ(q.front().seq, 100u) << "in-service packet was displaced";
  }
}

TEST(RandomDrop, ByteAccountingAfterVictimRemoval) {
  DropTailQueue q(QueueLimit::of(2), DropPolicy::kRandomDrop, 9);
  q.offer(pkt(0));                    // 500 B data
  q.offer(pkt(1, PacketKind::kAck));  // 50 B ACK
  // Churn a full queue with mixed sizes; the byte count must always equal
  // the sum of the occupants' sizes.
  for (std::uint32_t i = 2; i < 30; ++i) {
    q.offer(pkt(i, i % 2 == 0 ? PacketKind::kData : PacketKind::kAck));
  }
  std::size_t bytes_via_pop = 0;
  const std::size_t reported = q.length_bytes();
  while (auto p = q.pop()) bytes_via_pop += p->size_bytes;
  EXPECT_EQ(bytes_via_pop, reported);
  EXPECT_EQ(q.length_bytes(), 0u);
}

TEST(RandomDrop, DropTailPolicyUnchangedByDefault) {
  DropTailQueue q(QueueLimit::of(1));
  ASSERT_TRUE(q.offer(pkt(0)).accepted);
  const EnqueueResult r = q.offer(pkt(1));
  EXPECT_FALSE(r.accepted);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(r.dropped->seq, 1u);  // drop-tail always discards the arrival
  EXPECT_EQ(q.front().seq, 0u);
}

TEST(RandomDrop, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    DropTailQueue q(QueueLimit::of(4), DropPolicy::kRandomDrop, seed);
    std::vector<std::uint32_t> dropped;
    for (std::uint32_t i = 0; i < 50; ++i) {
      const EnqueueResult r = q.offer(pkt(i));
      if (r.dropped) dropped.push_back(r.dropped->seq);
    }
    return dropped;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// Regression test for the push() accounting bug: OutputPort::enqueue used to
// route arrivals through a bool-returning push() that discarded
// EnqueueResult::dropped, so a random-drop *victim* (arrival accepted, an
// occupant evicted) never fired a drop event and never reached observers.
// Every drop — victim or rejected arrival — must now surface exactly once,
// with the victim flag telling the two cases apart.
class RecordingObserver : public PacketObserver {
 public:
  struct Drop {
    std::uint32_t seq;
    DropCause cause;
  };
  void on_create(sim::Time, const Packet&) override {}
  void on_enqueue(sim::Time, const OutputPort&, const Packet&) override {
    ++enqueues;
  }
  void on_drop(sim::Time, const OutputPort&, const Packet& pkt,
               DropCause cause) override {
    drops.push_back({pkt.seq, cause});
  }
  void on_dequeue(sim::Time, const OutputPort&, const Packet&) override {}
  void on_deliver(sim::Time, const Packet&) override {}
  int enqueues = 0;
  std::vector<Drop> drops;
};

TEST(RandomDropPort, VictimDropsReachHookAndObserver) {
  sim::Simulator sim;
  OutputPort port(sim, "p", 50'000, sim::Time::zero(),
                  QdiscConfig::random_drop(QueueLimit::of(3)), 7);
  RecordingObserver obs;
  port.set_observer(&obs);
  int hook_drops = 0;
  port.on_drop = [&](sim::Time, const Packet&) { ++hook_drops; };
  const std::uint32_t kOffers = 60;
  for (std::uint32_t i = 0; i < kOffers; ++i) port.enqueue(pkt(i));
  // Queue holds 3, so every offer past capacity lost exactly one packet.
  ASSERT_EQ(port.queue_length(), 3u);
  EXPECT_EQ(hook_drops, static_cast<int>(kOffers - 3));
  ASSERT_EQ(obs.drops.size(), kOffers - 3);
  EXPECT_EQ(port.counters().drops, kOffers - 3);
  // With seed 7 and 4 candidates per full-queue offer, both kinds occur.
  int victims = 0, rejected = 0;
  for (const auto& d : obs.drops) {
    (d.cause == DropCause::kQueueVictim ? victims : rejected)++;
    EXPECT_EQ(drop_was_queued(d.cause), d.cause == DropCause::kQueueVictim);
  }
  EXPECT_GT(victims, 0) << "random-drop victims invisible again (push bug)";
  EXPECT_GT(rejected, 0);
  // Victim drops imply the arrival was admitted: enqueues = accepted offers.
  EXPECT_EQ(obs.enqueues, 3 + victims);
}

TEST(RandomDropPort, DropHookSeesVictim) {
  sim::Simulator sim;
  OutputPort port(sim, "p", 50'000, sim::Time::zero(),
                  QdiscConfig::random_drop(QueueLimit::of(3)), 11);
  int drops = 0;
  port.on_drop = [&](sim::Time, const Packet&) { ++drops; };
  int changes = 0;
  port.on_queue_change = [&](sim::Time, std::size_t) { ++changes; };
  for (std::uint32_t i = 0; i < 10; ++i) port.enqueue(pkt(i));
  EXPECT_EQ(drops, 7);
  EXPECT_EQ(port.queue_length(), 3u);
  // Queue-change events only fire when the length actually changed.
  EXPECT_EQ(changes, 3);
}

}  // namespace
}  // namespace tcpdyn::net
