// Package tcp implements a packet-level TCP substrate with pluggable
// congestion control, providing the baselines of the paper's evaluation
// (§5): TCP Cubic (the Linux default), TCP Vegas, Compound TCP (the
// Windows default) and LEDBAT, plus NewReno as the loss-recovery base.
//
// The substrate follows standard network-simulator practice (ns-2/ns-3):
// segments are MTU-sized units identified by packet sequence numbers;
// receivers send one cumulative ACK (with duplicate-ACK semantics) per
// segment; the sender performs RFC 6298 RTO estimation, fast retransmit on
// three duplicate ACKs, NewReno fast recovery, and slow-start/congestion-
// avoidance as directed by the CongestionControl implementation.
//
// The paper's finding — that every loss- or delay-triggered TCP builds
// multi-second standing queues on cellular links, or underutilizes them —
// depends only on the window dynamics reproduced here, not on byte-level
// framing details.
package tcp

import (
	"time"
)

// Segment numbers count MTU-sized packets.
type segnum = int64

// CongestionControl is the pluggable congestion-avoidance policy.
// Windows are measured in segments (may be fractional).
type CongestionControl interface {
	// OnAck is invoked for each newly acknowledged segment, with the
	// sampled RTT for the ACKed segment and the current smoothed and
	// minimum RTT estimates.
	OnAck(acked int, rtt, srtt, minRTT time.Duration)
	// OnLoss is invoked on a fast-retransmit loss event (at most once
	// per window).
	OnLoss()
	// OnTimeout is invoked on an RTO; the window collapses to 1.
	OnTimeout()
	// Window returns the current congestion window in segments.
	Window() float64
}

// Clock abstraction matching sim.Clock's Now (the substrate only reads
// time; timers are scheduled by the Conn).
type nowFunc func() time.Duration
