package tcp

import (
	"math"
	"time"
)

// Cubic implements CUBIC congestion control (Ha, Rhee, Xu 2008; RFC 8312),
// the Linux default evaluated throughout the paper. The window grows as a
// cubic function of time since the last loss, plateauing near the previous
// maximum, with a TCP-friendly region for short-RTT paths.
type Cubic struct {
	now nowFunc

	cwnd     float64
	ssthresh float64

	wMax       float64
	epochStart time.Duration
	k          float64 // time offset to reach wMax
	ackCount   float64 // for the TCP-friendly estimate
	wEst       float64
}

// Cubic constants per RFC 8312.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// NewCubic returns a CUBIC controller. now supplies the current time (use
// loop.Now in simulation).
func NewCubic(now func() time.Duration) *Cubic {
	return &Cubic{now: now, cwnd: initialWindow, ssthresh: 1 << 20}
}

// Window implements CongestionControl.
func (c *Cubic) Window() float64 { return c.cwnd }

// OnAck implements CongestionControl.
func (c *Cubic) OnAck(acked int, _, srtt, _ time.Duration) {
	for i := 0; i < acked; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd++
			continue
		}
		c.congestionAvoidance(srtt)
	}
}

func (c *Cubic) congestionAvoidance(srtt time.Duration) {
	now := c.now()
	if c.epochStart == 0 {
		c.epochStart = now
		if c.cwnd < c.wMax {
			c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		} else {
			c.k = 0
			c.wMax = c.cwnd
		}
		c.ackCount = 0
		c.wEst = c.cwnd
	}
	t := (now - c.epochStart).Seconds()
	target := c.wMax + cubicC*math.Pow(t-c.k, 3)
	// TCP-friendly region (RFC 8312 §4.2).
	if srtt > 0 {
		c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) / c.cwnd
	}
	if target < c.wEst {
		target = c.wEst
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / c.cwnd
	} else {
		c.cwnd += 0.01 / c.cwnd // minimal growth at the plateau
	}
}

// OnLoss implements CongestionControl.
func (c *Cubic) OnLoss() {
	c.epochStart = 0
	if c.cwnd < c.wMax {
		// Fast convergence (RFC 8312 §4.6).
		c.wMax = c.cwnd * (1 + cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= cubicBeta
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.ssthresh = c.cwnd
}

// OnTimeout implements CongestionControl.
func (c *Cubic) OnTimeout() {
	c.epochStart = 0
	c.wMax = c.cwnd
	c.ssthresh = c.cwnd * cubicBeta
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 1
}
