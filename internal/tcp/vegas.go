package tcp

import "time"

// Vegas implements TCP Vegas (Brakmo & Peterson 1994): once per RTT it
// compares the expected throughput (cwnd/baseRTT) with the actual
// throughput (cwnd/RTT) and nudges the window to keep between alpha and
// beta segments queued at the bottleneck. Delay-triggered like Sprout, but
// reactive — the paper finds it underutilizes fast-varying cellular links
// while still building moderate queues.
type Vegas struct {
	cwnd     float64
	ssthresh float64

	alpha, beta float64

	// Per-RTT cadence: act once per window's worth of ACKs.
	ackedThisRTT int
}

// NewVegas returns a Vegas controller with the classic alpha=2, beta=4.
func NewVegas() *Vegas {
	return &Vegas{cwnd: initialWindow, ssthresh: 1 << 20, alpha: 2, beta: 4}
}

// Window implements CongestionControl.
func (v *Vegas) Window() float64 { return v.cwnd }

// OnAck implements CongestionControl.
func (v *Vegas) OnAck(acked int, rtt, srtt, minRTT time.Duration) {
	v.ackedThisRTT += acked
	if float64(v.ackedThisRTT) < v.cwnd {
		return
	}
	v.ackedThisRTT = 0
	if rtt <= 0 || minRTT <= 0 || minRTT == time.Hour {
		return
	}
	// diff = cwnd * (1 - baseRTT/RTT): segments occupying the queue.
	diff := v.cwnd * (1 - minRTT.Seconds()/rtt.Seconds())
	switch {
	case v.cwnd < v.ssthresh:
		// Vegas slow start: stop doubling once the queue builds.
		if diff > v.alpha {
			v.ssthresh = v.cwnd
		} else {
			v.cwnd *= 2
		}
	case diff < v.alpha:
		v.cwnd++
	case diff > v.beta:
		v.cwnd--
		if v.cwnd < 2 {
			v.cwnd = 2
		}
	}
}

// OnLoss implements CongestionControl.
func (v *Vegas) OnLoss() {
	v.cwnd *= 0.5
	if v.cwnd < 2 {
		v.cwnd = 2
	}
	v.ssthresh = v.cwnd
}

// OnTimeout implements CongestionControl.
func (v *Vegas) OnTimeout() {
	v.ssthresh = v.cwnd / 2
	if v.ssthresh < 2 {
		v.ssthresh = 2
	}
	v.cwnd = 1
	v.ackedThisRTT = 0
}
