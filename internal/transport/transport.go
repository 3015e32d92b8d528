// Package transport implements the Sprout protocol endpoints (§3.4–3.5 of
// the paper): a Receiver that runs the Bayesian inference every 20 ms tick
// and feeds cautious delivery forecasts back to the Sender, and a Sender
// that turns the most recent forecast plus its running queue-occupancy
// estimate into a window of bytes that are safe to transmit — bytes that
// will clear the bottleneck queue within 100 ms with 95% probability.
//
// Endpoints are written against the sim.Clock interface and network.Conn,
// so the same code drives both the virtual-time experiments and the
// real-UDP adapter in internal/udp.
package transport

import (
	"time"

	"sprout/internal/sim"
)

// Source provides application data to a Sender.
//
// NextPayload returns the next chunk to send given that at most max payload
// bytes fit in one packet. wireLen is the number of on-wire payload bytes
// the chunk occupies (wireLen >= len(data), allowing synthetic padding whose
// content is irrelevant to the experiment). wireLen == 0 means no data is
// pending.
type Source interface {
	NextPayload(max int) (data []byte, wireLen int)
}

// BulkSource is an infinite backlog: it always fills the packet with
// padding. This models the saturating interactive sender of the paper's
// evaluation (a videoconferencing app with more data than the link can
// carry).
type BulkSource struct{}

// NextPayload implements Source.
func (BulkSource) NextPayload(max int) ([]byte, int) { return nil, max }

// reorderWindow is the interval after which the network is assumed never to
// reorder two packets (§3.4: the throwaway number writes off bytes sent more
// than 10 ms before the newest received packet).
const reorderWindow = 10 * time.Millisecond

var _ sim.Clock = (*sim.Loop)(nil)
