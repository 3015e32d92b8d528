package tcp

import "time"

// LEDBAT implements Low Extra Delay Background Transport (RFC 6817), the
// congestion controller of µTP/BitTorrent evaluated in the paper. It aims
// to keep the queueing delay it induces at a fixed target (100 ms) by
// adjusting the window proportionally to the distance from the target.
//
// RFC 6817 uses one-way delay measurements; in this substrate the reverse
// path is uncongested and has constant propagation delay, so the queueing
// delay estimate RTT - minRTT equals the forward one-way queueing delay.
type LEDBAT struct {
	cwnd float64
}

// LEDBAT parameters per RFC 6817.
const (
	ledbatTarget = 100 * time.Millisecond
	ledbatGain   = 1.0
	// allowedIncrease caps growth to one segment per RTT per the RFC's
	// TCP-fairness guidance.
	ledbatMaxRampPerAck = 1.0
)

// NewLEDBAT returns a LEDBAT controller.
func NewLEDBAT() *LEDBAT {
	return &LEDBAT{cwnd: initialWindow}
}

// Window implements CongestionControl.
func (l *LEDBAT) Window() float64 { return l.cwnd }

// OnAck implements CongestionControl.
func (l *LEDBAT) OnAck(acked int, rtt, srtt, minRTT time.Duration) {
	if rtt <= 0 || minRTT <= 0 || minRTT == time.Hour {
		return
	}
	queuing := rtt - minRTT
	offTarget := float64(ledbatTarget-queuing) / float64(ledbatTarget)
	for i := 0; i < acked; i++ {
		delta := ledbatGain * offTarget / l.cwnd
		if delta > ledbatMaxRampPerAck {
			delta = ledbatMaxRampPerAck
		}
		l.cwnd += delta
		if l.cwnd < 2 {
			l.cwnd = 2
		}
	}
}

// OnLoss implements CongestionControl.
func (l *LEDBAT) OnLoss() {
	l.cwnd /= 2
	if l.cwnd < 2 {
		l.cwnd = 2
	}
}

// OnTimeout implements CongestionControl.
func (l *LEDBAT) OnTimeout() {
	l.cwnd = 2
}
