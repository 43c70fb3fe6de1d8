// BSD 4.3-Tahoe congestion control (paper §2.1), as a CongestionControl
// strategy.
//
// State: congestion window `cwnd` (a real number, in packets) and threshold
// `ssthresh`. On each ACK of new data:
//     if (cwnd < ssthresh)  cwnd += 1;            // slow start
//     else                  cwnd += 1 / cwnd;     // congestion avoidance
// The paper removes a floor-related anomaly by using cwnd += 1/⌊cwnd⌋ in
// congestion avoidance so ⌊cwnd⌋ increases by exactly one per epoch; that
// modified increment is the default here (modified_ca_increment). As in the
// BSD code, cwnd is capped at maxwnd after every increase (the shared
// capped() helper), so a long loss-free stretch cannot inflate the
// accumulator beyond the effective window.
//
// On any detected loss (dup ACKs or timeout):
//     ssthresh = max(min(cwnd / 2, maxwnd), 2);
//     cwnd = 1;
// followed by go-back-N retransmission (in WindowSender).
//
// The usable window is wnd = ⌊min(cwnd, maxwnd)⌋.
#pragma once

#include <cmath>

#include "tcp/congestion_control.h"

namespace tcpdyn::tcp {

class TahoeCc : public CongestionControl {
 public:
  explicit TahoeCc(TahoeParams params = {})
      : tahoe_(params),
        cwnd_(params.initial_cwnd),
        ssthresh_(params.initial_ssthresh) {}

  const char* name() const override { return "tahoe"; }
  CcAlgorithm algorithm() const override { return CcAlgorithm::kTahoe; }
  double cwnd() const override { return cwnd_; }

  std::uint32_t ssthresh() const { return ssthresh_; }
  bool in_slow_start() const {
    return cwnd_ < static_cast<double>(ssthresh_);
  }

  void on_ack(const AckContext& ctx) override {
    // One window increase per ACK of new data, exactly as the BSD code does
    // (with delayed ACKs the receiver sends fewer ACKs, so the window opens
    // more slowly — the paper notes this pacing side effect in §5).
    grow(tahoe_.modified_ca_increment);
    notify(ctx.now, CcEvent::kAck);
  }

  void on_dup_ack_loss(sim::Time now) override {
    collapse(now, CcEvent::kFastRetransmit);
  }

  void on_timeout(sim::Time now) override {
    collapse(now, CcEvent::kTimeout);
  }

  void on_ecn_echo(sim::Time now) override {
    // RFC 3168 §6.1.2: respond as to a fast retransmit — halve the window —
    // but nothing was lost, so no collapse to one and no retransmission.
    // Inherited by Reno and NewReno, whose recovery mechanics are loss-path
    // machinery that a pure congestion signal never enters.
    ssthresh_ = halved_ssthresh(cwnd_);
    cwnd_ = static_cast<double>(ssthresh_);
    notify(now, CcEvent::kEcnEcho);
  }

 protected:
  // Shared by Tahoe and Reno's non-recovery ACK path.
  void grow(bool modified_increment) {
    if (cwnd_ < static_cast<double>(ssthresh_)) {
      cwnd_ += 1.0;  // slow start / congestion recovery
    } else if (modified_increment) {
      cwnd_ += 1.0 / std::floor(cwnd_);  // paper's anomaly-free increment
    } else {
      cwnd_ += 1.0 / cwnd_;  // original BSD 4.3-Tahoe increment
    }
    cwnd_ = capped(cwnd_);
  }

  void collapse(sim::Time now, CcEvent why) {
    // ssthresh = max(min(cwnd/2, maxwnd), 2); cwnd = 1 (paper §2.1).
    ssthresh_ = halved_ssthresh(cwnd_);
    cwnd_ = 1.0;
    notify(now, why);
  }

  TahoeParams tahoe_;
  double cwnd_;
  std::uint32_t ssthresh_;
};

}  // namespace tcpdyn::tcp
