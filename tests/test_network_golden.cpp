// Network arrival-log golden: a scripted four-host SimNetwork run whose
// every arrival (hexfloat time, from, to, channel, payload tag) and final
// counters are compared byte for byte with a log written before in-flight
// messages were kept in per-link queues. The script covers what can make a
// link's arrivals non-monotonic or its queue drain abnormally: lossy links,
// a link delay lowered (and raised again) while messages are in flight, a
// fuzz hook that delays, duplicates and drops, a host crash with messages
// in flight, a severed link, local sends, zero-size messages that arrive at
// equal times, and receivers that send from inside their handlers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/network.h"

namespace dif::sim {
namespace {

std::uint32_t tag_of(const NetMessage& m) {
  std::uint32_t tag = 0;
  for (std::size_t i = 0; i < 4 && i < m.payload.size(); ++i)
    tag |= static_cast<std::uint32_t>(m.payload[i]) << (8 * i);
  return tag;
}

std::string arrival_log(std::uint64_t seed) {
  Simulator sim;
  SimNetwork net(sim, 4, seed);
  net.set_link(0, 1, {.reliability = 0.85, .bandwidth = 50.0, .delay_ms = 4.0});
  net.set_link(0, 2, {.reliability = 1.0, .bandwidth = 200.0, .delay_ms = 20.0});
  net.set_link(1, 2, {.reliability = 0.95, .bandwidth = 1e12, .delay_ms = 3.0});
  net.set_link(2, 3, {.reliability = 1.0, .bandwidth = 100.0, .delay_ms = 5.0});
  net.set_link(1, 3, {.reliability = 0.9, .bandwidth = 80.0, .delay_ms = 1.0});

  std::string log;
  char line[128];
  const auto send = [&net](model::HostId from, model::HostId to, double kb,
                           std::uint32_t tag, const char* channel) {
    NetMessage m;
    m.from = from;
    m.to = to;
    m.channel = channel;
    m.size_kb = kb;
    for (int i = 0; i < 4; ++i)
      m.payload.push_back(static_cast<std::uint8_t>(tag >> (8 * i)));
    net.send(std::move(m));
  };
  for (model::HostId h = 0; h < 4; ++h) {
    net.set_receiver(h, [&, h](const NetMessage& m) {
      const std::uint32_t tag = tag_of(m);
      std::snprintf(line, sizeof line, "%a %u %u %s %u\n", sim.now(), m.from,
                    m.to, m.channel.c_str(), tag);
      log += line;
      // Host 2 echoes every fourth original back to its sender.
      if (h == 2 && tag < 100'000 && tag % 4 == 0 && m.from != h)
        send(h, m.from, 0.1, tag + 100'000, "echo");
    });
  }
  net.set_fuzz_hook([](const NetMessage& m) -> std::optional<FuzzDecision> {
    const std::uint32_t tag = tag_of(m);
    FuzzDecision d;
    if (tag % 9 == 0) d.delay_ms = 25.0;
    if (tag % 10 == 3) {
      d.duplicates = 2;
      d.duplicate_gap_ms = 4.0;
    }
    if (tag % 17 == 5) d.drop = true;
    if (d.delay_ms == 0.0 && d.duplicates == 0 && !d.drop) return std::nullopt;
    return d;
  });

  std::uint32_t next_tag = 1;
  for (int tick = 0; tick < 100; ++tick) {
    sim.schedule_at(tick, [&, tick] {
      send(0, 1, 0.5 + (tick % 3) * 0.25, next_tag++, "data");
      send(1, 0, 0.2, next_tag++, "data");  // same link, other direction
      send(0, 2, 1.0, next_tag++, "data");
      send(1, 2, 0.0, next_tag++, "data");  // equal arrival times
      send(1, 2, 0.0, next_tag++, "data");
      send(2, 3, 0.3, next_tag++, "data");
      send(3, 1, 0.1, next_tag++, "data");
      if (tick % 7 == 0) send(2, 2, 0.4, next_tag++, "local");
      if (tick % 13 == 0) send(0, 3, 0.1, next_tag++, "data");  // no link
    });
  }
  sim.schedule_at(15.0, [&] {  // delay lowered with messages in flight
    net.set_link(0, 2, {.reliability = 1.0, .bandwidth = 200.0, .delay_ms = 2.0});
  });
  sim.schedule_at(40.0, [&] {
    net.set_link(0, 2, {.reliability = 1.0, .bandwidth = 200.0, .delay_ms = 20.0});
  });
  sim.schedule_at(30.0, [&] { net.fail_host(3); });  // messages in flight
  sim.schedule_at(55.0, [&] { net.recover_host(3); });
  sim.schedule_at(70.0, [&] { net.sever(1, 3); });
  sim.schedule_at(80.0, [&] { net.restore(1, 3); });
  sim.run();

  const MessageStats& s = net.stats();
  std::ostringstream out;
  out << log;
  std::snprintf(line, sizeof line, "end %a\n", sim.now());
  out << line;
  out << "sent " << s.sent << " delivered " << s.delivered << " dropped "
      << s.dropped << " unroutable " << s.unroutable << "\n";
  std::snprintf(line, sizeof line, "kb_sent %a kb_delivered %a\n", s.kb_sent,
                s.kb_delivered);
  out << line;
  out << "events " << sim.events_processed() << " batches "
      << sim.batches_dispatched() << "\n";
  for (const LinkDrops& d : net.dropped_links())
    out << "link " << d.a << "-" << d.b << " dropped " << d.dropped << "\n";
  return out.str();
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DIF_GOLDEN_DIR) + "/network/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(NetworkGolden, ArrivalLogIsByteIdentical) {
  EXPECT_EQ(arrival_log(1), read_golden("arrival_log_s1.txt"));
  EXPECT_EQ(arrival_log(2), read_golden("arrival_log_s2.txt"));
}

}  // namespace
}  // namespace dif::sim
