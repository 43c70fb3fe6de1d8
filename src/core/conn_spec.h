// ConnSpec: the one flow specification of the scenario layer. Every
// scenario is a TopoSpec whose TrafficMatrix holds ConnSpecs naming their
// endpoints by topology node name, so a connection configured for one
// topology moves to another by renaming its endpoints. A spec can also
// describe a *schedule* of several identical flows (`count` > 1) whose start
// times are jittered from the spec's own seeded RNG stream.
#pragma once

#include <cstdint>
#include <string>

#include "tcp/connection.h"

namespace tcpdyn::core {

struct ConnSpec {
  // --- endpoints -------------------------------------------------------
  // Node names, resolved when the matrix is instantiated against a compiled
  // topology.
  std::string src;
  std::string dst;

  // --- per-connection knobs -----------------------------------------
  tcp::CcAlgorithm kind = tcp::CcAlgorithm::kTahoe;
  std::uint32_t fixed_window = 10;
  bool delayed_ack = false;
  bool ecn = false;  // both endpoints negotiate ECT/ECE/CWR
  std::uint32_t maxwnd = 1000;
  std::uint32_t data_bytes = 500;
  std::uint32_t ack_bytes = 50;
  sim::Time pacing_interval = sim::Time::zero();
  sim::Time start_time = sim::Time::zero();
  sim::Time stop_time = sim::Time::zero();  // zero = transmit forever
  tcp::TahoeParams tahoe;      // only for kTahoe
  tcp::RenoParams reno;        // only for kReno
  tcp::NewRenoParams newreno;  // only for kNewReno
  tcp::CubicParams cubic;      // only for kCubic
  tcp::VegasParams vegas;      // only for kVegas
  tcp::BbrParams bbr;          // only for kBbr

  // --- flow schedule -------------------------------------------------
  // The spec expands to `count` flows; flow j starts at start_time plus a
  // uniform draw from [0, start_spread) taken from Rng(seed), so adding or
  // reordering other specs never perturbs this spec's start times.
  std::size_t count = 1;
  sim::Time start_spread = sim::Time::zero();
  std::uint64_t seed = 0;

  // Open-loop session churn: when arrival_rate > 0 the `count` flows arrive
  // as a Poisson process (exponential inter-arrival gaps at `arrival_rate`
  // flows/sec from the spec's own Rng stream, accumulated onto start_time;
  // start_spread is ignored). Each session transmits for session_time and
  // then stops — zero keeps the spec's stop_time (transmit forever).
  double arrival_rate = 0.0;  // flows per second; 0 = closed population
  sim::Time session_time = sim::Time::zero();

  // Copies the per-connection knobs (not endpoints or schedule) onto a
  // ConnectionConfig.
  tcp::ConnectionConfig to_config() const {
    tcp::ConnectionConfig cfg;
    cfg.kind = kind;
    cfg.fixed_window = fixed_window;
    cfg.data_bytes = data_bytes;
    cfg.ack_bytes = ack_bytes;
    cfg.maxwnd = maxwnd;
    cfg.delayed_ack = delayed_ack;
    cfg.ecn = ecn;
    cfg.pacing_interval = pacing_interval;
    cfg.start_time = start_time;
    cfg.stop_time = stop_time;
    cfg.tahoe = tahoe;
    cfg.reno = reno;
    cfg.newreno = newreno;
    cfg.cubic = cubic;
    cfg.vegas = vegas;
    cfg.bbr = bbr;
    return cfg;
  }
};

}  // namespace tcpdyn::core
