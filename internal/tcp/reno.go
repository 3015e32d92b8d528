package tcp

import "time"

// Reno implements classic TCP Reno congestion control (Jacobson 1988 with
// NewReno recovery in the substrate): slow start to ssthresh, then additive
// increase of one segment per RTT, multiplicative decrease by half on loss.
type Reno struct {
	cwnd     float64
	ssthresh float64
}

// NewReno returns a Reno controller with the conventional initial window.
func NewRenoCC() *Reno {
	return &Reno{cwnd: initialWindow, ssthresh: 1 << 20}
}

// initialWindow is the RFC 6928 initial congestion window (10 segments).
const initialWindow = 10

// Window implements CongestionControl.
func (r *Reno) Window() float64 { return r.cwnd }

// OnAck implements CongestionControl.
func (r *Reno) OnAck(acked int, _, _, _ time.Duration) {
	for i := 0; i < acked; i++ {
		if r.cwnd < r.ssthresh {
			r.cwnd++ // slow start: one segment per ACKed segment
		} else {
			r.cwnd += 1 / r.cwnd // congestion avoidance
		}
	}
}

// OnLoss implements CongestionControl.
func (r *Reno) OnLoss() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2 {
		r.ssthresh = 2
	}
	r.cwnd = r.ssthresh
}

// OnTimeout implements CongestionControl.
func (r *Reno) OnTimeout() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2 {
		r.ssthresh = 2
	}
	r.cwnd = 1
}
