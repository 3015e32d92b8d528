package tcp

import (
	"math"
	"time"
)

// Compound implements Compound TCP (Tan, Song, Zhang, Sridharan, INFOCOM
// 2006), the default in the Windows 7 endpoints the paper tested. The send
// window is the sum of a loss-based component (standard Reno cwnd) and a
// delay-based component (dwnd) that grows aggressively while the queue is
// empty and retreats as queueing delay appears.
type Compound struct {
	cwnd     float64 // loss-based component
	dwnd     float64 // delay-based component
	ssthresh float64

	ackedThisRTT int
}

// Compound TCP parameters from the paper: alpha=0.125, beta=0.5, k=0.75,
// gamma=30 packets of queue backlog, zeta=1.
const (
	ctcpAlpha = 0.125
	ctcpBeta  = 0.5
	ctcpK     = 0.75
	ctcpGamma = 30.0
	ctcpZeta  = 1.0
)

// NewCompound returns a Compound TCP controller.
func NewCompound() *Compound {
	return &Compound{cwnd: initialWindow, ssthresh: 1 << 20}
}

// Window implements CongestionControl.
func (c *Compound) Window() float64 { return c.cwnd + c.dwnd }

// OnAck implements CongestionControl.
func (c *Compound) OnAck(acked int, rtt, srtt, minRTT time.Duration) {
	// Loss component behaves like Reno over the *combined* window.
	win := c.Window()
	for i := 0; i < acked; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd++
		} else {
			c.cwnd += 1 / win
		}
	}
	// Delay component updates once per RTT.
	c.ackedThisRTT += acked
	if float64(c.ackedThisRTT) < win {
		return
	}
	c.ackedThisRTT = 0
	if rtt <= 0 || minRTT <= 0 || minRTT == time.Hour {
		return
	}
	diff := win * (1 - minRTT.Seconds()/rtt.Seconds())
	if diff < ctcpGamma {
		// Queue is empty enough: grow the delay window along the
		// binomial curve alpha*win^k.
		inc := ctcpAlpha*math.Pow(win, ctcpK) - 1
		if inc > 0 {
			c.dwnd += inc
		}
	} else {
		c.dwnd -= ctcpZeta * diff
		if c.dwnd < 0 {
			c.dwnd = 0
		}
	}
}

// OnLoss implements CongestionControl.
func (c *Compound) OnLoss() {
	win := c.Window()
	// dwnd = win*(1-beta) - cwnd/2 per the Compound TCP paper.
	c.cwnd = c.cwnd / 2
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.dwnd = win*(1-ctcpBeta) - c.cwnd
	if c.dwnd < 0 {
		c.dwnd = 0
	}
	c.ssthresh = c.cwnd
}

// OnTimeout implements CongestionControl.
func (c *Compound) OnTimeout() {
	c.ssthresh = c.Window() / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 1
	c.dwnd = 0
	c.ackedThisRTT = 0
}
