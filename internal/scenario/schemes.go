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
		New:         sproutConstructor("sprout", func(p core.Params) core.Forecaster { return core.NewDeliveryForecaster(core.NewModel(p)) }),
	})
	Register(Scheme{
		Name:        "sprout-ewma",
		Description: "Sprout-EWMA: EWMA rate tracker in place of the Bayesian filter (§5.3)",
		New:         sproutConstructor("sprout-ewma", func(core.Params) core.Forecaster { return core.NewEWMAForecaster() }),
	})

	// Interactive applications (the measured commercial programs).
	for _, profile := range app.Profiles() {
		name := strings.ToLower(profile.Name)
		Register(Scheme{
			Name:        name,
			Description: fmt.Sprintf("%s-like videoconference model (measured §5.2 personality)", profile.Name),
			BaseFlow:    1,
			New:         appConstructor(name, profile),
		})
	}

	// TCP baselines.
	Register(Scheme{
		Name:        "cubic",
		Description: "TCP Cubic, the Linux default (§5)",
		BaseFlow:    1,
		New:         tcpConstructor("cubic", newCubic, 0),
	})
	Register(Scheme{
		Name:        "cubic-codel",
		Description: "TCP Cubic with CoDel AQM at the bottleneck (§5.4)",
		UsesCoDel:   true,
		BaseFlow:    1,
		New:         tcpConstructor("cubic", newCubic, 0),
	})
	Register(Scheme{
		Name:        "vegas",
		Description: "TCP Vegas, delay-based congestion avoidance (§5)",
		BaseFlow:    1,
		New:         tcpConstructor("vegas", clockless(tcp.NewVegas), 0),
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
		New: tcpConstructor("compound", clockless(tcp.NewCompound), 170),
	})
	Register(Scheme{
		Name:        "ledbat",
		Description: "LEDBAT scavenger transport (§5)",
		BaseFlow:    1,
		New:         tcpConstructor("ledbat", clockless(tcp.NewLEDBAT), 0),
	})

	// Extras beyond the paper's grid.
	Register(Scheme{
		Name:        "reno",
		Description: "TCP NewReno, the loss-recovery base of the TCP substrate",
		Extra:       true,
		BaseFlow:    1,
		New:         tcpConstructor("reno", clockless(tcp.NewRenoCC), 0),
	})
}

// The built-in constructors memoize their endpoints in the worker's world
// (AttachConfig.Memoized/Memoize): the first job on a worker builds them,
// every later job Resets the retained instances instead — the same
// construction sequence, so the event-queue priorities endpoints consume
// are identical and reuse cannot perturb results.

// sproutEndpoints is the memoized bundle of one Sprout-family flow.
type sproutEndpoints struct {
	rcv *transport.Receiver
	snd *transport.Sender
	ep  Endpoint
}

// sproutConstructor builds the Sprout-family constructor: the variants
// differ only in the forecaster the receiver runs (kind tags the variant
// in the endpoint memo).
func sproutConstructor(kind string, forecaster func(core.Params) core.Forecaster) Constructor {
	return func(cfg AttachConfig) (Endpoint, error) {
		rcfg := transport.ReceiverConfig{
			Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.FeedbackConn,
			Pool: cfg.Packets,
		}
		scfg := transport.SenderConfig{
			Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.DataConn,
			Pool: cfg.Packets,
		}
		// Confidence shapes the forecaster, so it salts the memo key:
		// the §5.5 sweep's five confidences get five bundles, each
		// reused by later jobs at the same setting.
		if v, ok := cfg.Memoized(kind, cfg.Confidence); ok {
			se := v.(*sproutEndpoints)
			rcfg.Forecaster = se.rcv.Forecaster()
			se.rcv.Reset(rcfg)
			se.snd.Reset(scfg)
			return se.ep, nil
		}
		params := core.Params{}
		if cfg.Confidence != 0 {
			params.Confidence = cfg.Confidence
		}
		rcfg.Forecaster = forecaster(params)
		rcv := transport.NewReceiver(rcfg)
		snd := transport.NewSender(scfg)
		se := &sproutEndpoints{rcv: rcv, snd: snd, ep: Endpoint{Data: rcv.Receive, Feedback: snd.Receive}}
		cfg.Memoize(kind, cfg.Confidence, se)
		return se.ep, nil
	}
}

// tcpEndpoints is the memoized bundle of one TCP-baseline flow.
type tcpEndpoints struct {
	rcv *tcp.Receiver
	snd *tcp.Sender
	ep  Endpoint
}

// newCubic builds Cubic on the flow's clock: its window grows in real
// (here virtual) time.
func newCubic(now func() time.Duration) tcp.CongestionControl { return tcp.NewCubic(now) }

// clockless adapts the constructor of a controller that keeps no clock.
func clockless[C tcp.CongestionControl](f func() C) func(now func() time.Duration) tcp.CongestionControl {
	return func(func() time.Duration) tcp.CongestionControl { return f() }
}

// tcpConstructor builds a TCP-baseline constructor: each attach gets a fresh
// controller from newCC, bound to the flow's clock, and a receive window
// capped at maxWindow segments (0: the sender's default). kind tags the
// controller in the endpoint memo, so schemes that share one share
// endpoints.
func tcpConstructor(kind string, newCC func(now func() time.Duration) tcp.CongestionControl, maxWindow int) Constructor {
	kind = "tcp/" + kind
	return func(cfg AttachConfig) (Endpoint, error) {
		sc := tcp.SenderConfig{
			Flow: cfg.Flow, Clock: cfg.Clock, Conn: cfg.DataConn, CC: newCC(cfg.Clock.Now), MSS: cfg.MSS,
			MaxWindow: maxWindow, Pool: cfg.Packets,
		}
		if v, ok := cfg.Memoized(kind, 0); ok {
			te := v.(*tcpEndpoints)
			te.rcv.Reset(cfg.Flow, cfg.Clock, cfg.FeedbackConn)
			te.snd.Reset(sc)
			return te.ep, nil
		}
		rcv := tcp.NewReceiver(cfg.Flow, cfg.Clock, cfg.FeedbackConn)
		rcv.UsePool(cfg.Packets)
		snd := tcp.NewSender(sc)
		te := &tcpEndpoints{rcv: rcv, snd: snd, ep: Endpoint{Data: rcv.Receive, Feedback: snd.Receive}}
		cfg.Memoize(kind, 0, te)
		return te.ep, nil
	}
}

// appEndpoints is the memoized bundle of one interactive-application flow.
type appEndpoints struct {
	rcv *app.Receiver
	snd *app.Sender
	ep  Endpoint
}

// appConstructor builds an interactive-application constructor around a
// profile, resolved once when the scheme registers: an attach copies the
// struct and allocates nothing.
func appConstructor(name string, profile app.Profile) Constructor {
	kind := "app/" + name
	return func(cfg AttachConfig) (Endpoint, error) {
		p := profile
		if cfg.MSS > 0 {
			p.PacketSize = cfg.MSS
		}
		if v, ok := cfg.Memoized(kind, 0); ok {
			ae := v.(*appEndpoints)
			ae.rcv.Reset(cfg.Flow, p, cfg.Clock, cfg.FeedbackConn)
			ae.snd.Reset(cfg.Flow, p, cfg.Clock, cfg.DataConn)
			return ae.ep, nil
		}
		rcv := app.NewReceiver(cfg.Flow, p, cfg.Clock, cfg.FeedbackConn)
		rcv.UsePool(cfg.Packets)
		snd := app.NewSender(cfg.Flow, p, cfg.Clock, cfg.DataConn)
		snd.UsePool(cfg.Packets)
		ae := &appEndpoints{rcv: rcv, snd: snd, ep: Endpoint{Data: rcv.Receive, Feedback: snd.Receive}}
		cfg.Memoize(kind, 0, ae)
		return ae.ep, nil
	}
}
