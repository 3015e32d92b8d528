package scenario

import (
	"fmt"
	"strings"
	"time"

	"sprout/internal/app"
	"sprout/internal/core"
	"sprout/internal/tcp"
	"sprout/internal/transport"
)

// The built-in registrations cover the paper's ten schemes in figure order
// plus one extra, plain Reno. Each family shares one constructor shape:
// Sprout variants differ only in their Forecaster, TCP baselines in their
// CongestionControl and receive-window cap, and the interactive
// applications in their app.Profile (from app.Profiles).

func init() {
	// Sprout family.
	Register(Scheme{
		Name:        "sprout",
		Description: "Sprout: Bayesian delivery forecasts, 95% cautious window (§3)",
		New:         sproutConstructor(func(p core.Params) core.Forecaster { return core.NewDeliveryForecaster(core.NewModel(p)) }),
	})
	Register(Scheme{
		Name:        "sprout-ewma",
		Description: "Sprout-EWMA: EWMA rate tracker in place of the Bayesian filter (§5.3)",
		New:         sproutConstructor(func(core.Params) core.Forecaster { return core.NewEWMAForecaster() }),
	})

	// Interactive applications (the measured commercial programs).
	for _, profile := range app.Profiles() {
		name := strings.ToLower(profile.Name)
		Register(Scheme{
			Name:        name,
			Description: fmt.Sprintf("%s-like videoconference model (measured §5.2 personality)", profile.Name),
			BaseFlow:    1,
			New:         appConstructor(profile),
		})
	}

	// TCP baselines.
	Register(Scheme{
		Name:        "cubic",
		Description: "TCP Cubic, the Linux default (§5)",
		BaseFlow:    1,
		New:         tcpConstructor(newCubic, 0),
	})
	Register(Scheme{
		Name:        "cubic-codel",
		Description: "TCP Cubic with CoDel AQM at the bottleneck (§5.4)",
		UsesCoDel:   true,
		BaseFlow:    1,
		New:         tcpConstructor(newCubic, 0),
	})
	Register(Scheme{
		Name:        "vegas",
		Description: "TCP Vegas, delay-based congestion avoidance (§5)",
		BaseFlow:    1,
		New:         tcpConstructor(clockless(tcp.NewVegas), 0),
	})
	Register(Scheme{
		Name:        "compound",
		Description: "Compound TCP, the Windows default (§5)",
		BaseFlow:    1,
		// The paper's Compound endpoint is Windows 7, whose receive-window
		// autotuning is far more conservative than Linux's (~256 kB vs
		// ~4 MB): without the 170-segment cap the deep-buffer queue is
		// receive-window-bound and Compound would be indistinguishable
		// from Cubic.
		New: tcpConstructor(clockless(tcp.NewCompound), 170),
	})
	Register(Scheme{
		Name:        "ledbat",
		Description: "LEDBAT scavenger transport (§5)",
		BaseFlow:    1,
		New:         tcpConstructor(clockless(tcp.NewLEDBAT), 0),
	})

	// Extras beyond the paper's grid.
	Register(Scheme{
		Name:        "reno",
		Description: "TCP NewReno, the loss-recovery base of the TCP substrate",
		Extra:       true,
		BaseFlow:    1,
		New:         tcpConstructor(clockless(tcp.NewRenoCC), 0),
	})
}

// The built-in constructors return each flow's endpoints with a reset
// closure (DESIGN.md §8.5). It replays construction exactly — the same
// events scheduled in the same order — so reuse cannot perturb results.

// sproutConstructor builds the Sprout-family constructor: the variants
// differ only in the forecaster the receiver runs. Confidence shapes the
// forecaster, which a reset keeps.
func sproutConstructor(forecaster func(core.Params) core.Forecaster) Constructor {
	return func(cfg AttachConfig) (Endpoint, error) {
		params := core.Params{}
		if cfg.Confidence != 0 {
			params.Confidence = cfg.Confidence
		}
		rcv := transport.NewReceiver(sproutReceiverConfig(cfg, forecaster(params)))
		snd := transport.NewSender(sproutSenderConfig(cfg))
		return Endpoint{
			Data:     rcv.Receive,
			Feedback: snd.Receive,
			tally:    func(wk *Work) { wk.addSprout(snd, rcv) },
			reset: func(cfg AttachConfig) {
				rcv.Reset(sproutReceiverConfig(cfg, rcv.Forecaster()))
				snd.Reset(sproutSenderConfig(cfg))
			},
		}, nil
	}
}

// sproutReceiverConfig and sproutSenderConfig wire one Sprout-family
// flow's endpoints from cfg, at construction and at reset alike.
func sproutReceiverConfig(cfg AttachConfig, f core.Forecaster) transport.ReceiverConfig {
	return transport.ReceiverConfig{
		Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.FeedbackConn, Pool: cfg.Packets, Forecaster: f,
	}
}

func sproutSenderConfig(cfg AttachConfig) transport.SenderConfig {
	return transport.SenderConfig{Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.DataConn, Pool: cfg.Packets}
}

// newCubic builds Cubic on the flow's clock: its window grows in real
// (here virtual) time.
func newCubic(now func() time.Duration) tcp.CongestionControl { return tcp.NewCubic(now) }

// clockless adapts the constructor of a controller that keeps no clock.
func clockless[C tcp.CongestionControl](f func() C) func(now func() time.Duration) tcp.CongestionControl {
	return func(func() time.Duration) tcp.CongestionControl { return f() }
}

// tcpConstructor builds a TCP-baseline constructor: each attach, and each
// reset, gets a fresh controller from newCC, bound to the flow's clock, and
// a receive window capped at maxWindow segments (0: the sender's default).
func tcpConstructor(newCC func(now func() time.Duration) tcp.CongestionControl, maxWindow int) Constructor {
	senderConfig := func(cfg AttachConfig) tcp.SenderConfig {
		return tcp.SenderConfig{
			Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.DataConn, CC: newCC(cfg.Clock.Now), MSS: cfg.MSS,
			MaxWindow: maxWindow, Pool: cfg.Packets,
		}
	}
	return func(cfg AttachConfig) (Endpoint, error) {
		rcv := tcp.NewReceiver(cfg.Flow, cfg.Clock, cfg.FeedbackConn, cfg.Packets)
		snd := tcp.NewSender(senderConfig(cfg))
		return Endpoint{
			Data:     rcv.Receive,
			Feedback: snd.Receive,
			reset: func(cfg AttachConfig) {
				rcv.Reset(cfg.Flow, cfg.Clock, cfg.FeedbackConn, cfg.Packets)
				snd.Reset(senderConfig(cfg))
			},
		}, nil
	}
}

// appConstructor builds an interactive-application constructor around a
// profile, resolved once when the scheme registers: an attach copies the
// struct and allocates nothing.
func appConstructor(profile app.Profile) Constructor {
	withMSS := func(mss int) app.Profile {
		p := profile
		if mss > 0 {
			p.PacketSize = mss
		}
		return p
	}
	return func(cfg AttachConfig) (Endpoint, error) {
		p := withMSS(cfg.MSS)
		rcv := app.NewReceiver(cfg.Flow, p, cfg.Clock, cfg.FeedbackConn, cfg.Packets)
		snd := app.NewSender(cfg.Flow, p, cfg.Clock, cfg.DataConn, cfg.Packets)
		return Endpoint{
			Data:     rcv.Receive,
			Feedback: snd.Receive,
			reset: func(cfg AttachConfig) {
				p := withMSS(cfg.MSS)
				rcv.Reset(cfg.Flow, p, cfg.Clock, cfg.FeedbackConn, cfg.Packets)
				snd.Reset(cfg.Flow, p, cfg.Clock, cfg.DataConn, cfg.Packets)
			},
		}, nil
	}
}
