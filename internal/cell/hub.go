package cell

import (
	"time"

	"sprout/internal/core"
	"sprout/internal/sim"
	"sprout/internal/transport"
)

// Hub batches every Sprout flow's forecast into one core.ForecastBatch
// pass per tick. Receivers constructed with DeferFeedback pointing at
// Defer report themselves at each feedback-due tick instead of forecasting
// inline; the hub's own tick — armed after every initial receiver, so it
// fires after the member ticks at the same instant — collects the due
// Bayesian forecasters, answers them all from that one call, and emits
// each member's feedback packet in report order. Forecast vectors are bit-identical to inline per-receiver calls
// (ForecastBatch's contract); only the emission instant of receivers whose
// ticks are not phase-aligned with the hub (flows churned in mid-run)
// shifts, by less than one tick.
//
// All storage is retained across Reset calls for warm world reuse.
type Hub struct {
	clock  sim.Clock
	period time.Duration
	timer  sim.Timer
	tickFn func()

	due   []*transport.Receiver
	bayes []*core.DeliveryForecaster
	batch []float64
	fbuf  []float64
}

// Reset re-arms the hub for a fresh run on clock. The tick is not started
// until Arm.
func (h *Hub) Reset(clock sim.Clock) {
	if h.tickFn == nil {
		h.tickFn = h.tick
	}
	h.clock = clock
	h.due = h.due[:0]
	h.timer = sim.Timer{} // stale on the reset clock
}

// Defer records a receiver whose feedback is due this tick. Receivers pass
// this as their ReceiverConfig.DeferFeedback.
func (h *Hub) Defer(r *transport.Receiver) { h.due = append(h.due, r) }

// Arm starts the hub tick at the given period (the members' forecast tick
// duration). Call after every initial receiver is constructed, so the
// hub's timer sorts after theirs at shared instants.
func (h *Hub) Arm(period time.Duration) {
	h.period = period
	h.timer = h.clock.After(period, h.tickFn)
}

func (h *Hub) tick() {
	h.timer = sim.Reschedule(h.clock, h.timer, h.period, h.tickFn)
	if len(h.due) == 0 {
		return
	}
	h.bayes = h.bayes[:0]
	for _, r := range h.due {
		if f, ok := r.Forecaster().(*core.DeliveryForecaster); ok {
			h.bayes = append(h.bayes, f)
		}
	}
	horizon := 0
	if len(h.bayes) > 0 {
		h.batch = core.ForecastBatch(h.batch[:0], h.bayes)
		horizon = len(h.batch) / len(h.bayes)
	}
	bi := 0
	for _, r := range h.due {
		if _, ok := r.Forecaster().(*core.DeliveryForecaster); ok {
			r.EmitFeedback(h.batch[bi*horizon : (bi+1)*horizon])
			bi++
		} else {
			// Non-Bayesian member (Sprout-EWMA): no batch form, forecast
			// individually into retained scratch.
			h.fbuf = r.Forecaster().Forecast(h.fbuf[:0])
			r.EmitFeedback(h.fbuf)
		}
	}
	h.due = h.due[:0]
}
