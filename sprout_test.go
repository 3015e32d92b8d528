package sprout_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sprout"
)

// TestPublicAPIQuickstart exercises the facade end to end the way the
// examples do: generate a trace, wire endpoints through emulated links in
// a simulation, run, and evaluate.
func TestPublicAPIQuickstart(t *testing.T) {
	model, ok := sprout.CanonicalLink("Verizon-LTE-down")
	if !ok {
		t.Fatal("canonical link missing")
	}
	dur := 30 * time.Second
	data := model.Generate(dur+5*time.Second, rand.New(rand.NewSource(1)))
	up, _ := sprout.CanonicalLink("Verizon-LTE-up")
	fbTrace := up.Generate(dur+5*time.Second, rand.New(rand.NewSource(2)))

	loop := sprout.NewSimulation()
	var rcv *sprout.Receiver
	var snd *sprout.Sender
	fwd := sprout.NewLink(loop, sprout.LinkConfig{
		Trace:            data,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { rcv.Receive(p) })
	var deliveries []sprout.Delivery
	fwd.OnDelivery(func(d sprout.Delivery) { deliveries = append(deliveries, d) })
	rev := sprout.NewLink(loop, sprout.LinkConfig{
		Trace:            fbTrace,
		PropagationDelay: 20 * time.Millisecond,
	}, func(p *sprout.Packet) { snd.Receive(p) })
	rcv = sprout.NewReceiver(sprout.ReceiverConfig{Clock: loop, Conn: rev})
	snd = sprout.NewSender(sprout.SenderConfig{Clock: loop, Conn: fwd})

	loop.Run(dur)
	m := sprout.Evaluate(deliveries, data, 20*time.Millisecond, 5*time.Second, dur)
	if m.ThroughputBps < 500_000 {
		t.Errorf("throughput = %.0f bps, want substantial", m.ThroughputBps)
	}
	if m.SelfInflicted95 > 500*time.Millisecond {
		t.Errorf("self-inflicted delay = %v, want interactive", m.SelfInflicted95)
	}
}

// TestPublicAPIExperiment runs one declarative spec, and checks that naming
// a canonical link is the same experiment as injecting the pair
// GenerateTracePair returns for it.
func TestPublicAPIExperiment(t *testing.T) {
	spec := sprout.ScenarioSpec{
		Scheme: "sprout", Link: "Verizon LTE",
		Duration: sprout.ScenarioDuration(20 * time.Second), Skip: sprout.ScenarioDuration(5 * time.Second), Seed: 3,
	}
	named, err := sprout.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if named.Metrics.ThroughputBps == 0 {
		t.Error("no throughput")
	}
	spec.Link = ""
	spec.DataTrace, spec.FeedbackTrace = sprout.GenerateTracePair(sprout.CanonicalNetworks()[0], "down", 20*time.Second, 3)
	injected, err := sprout.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if named.Metrics != injected.Metrics || !reflect.DeepEqual(named.Flows, injected.Flows) ||
		named.Delay95 != injected.Delay95 || named.JainIndex != injected.JainIndex {
		t.Errorf("named link: %+v %+v delay95 %v Jain %v\ninjected pair: %+v %+v delay95 %v Jain %v",
			named.Metrics, named.Flows, named.Delay95, named.JainIndex,
			injected.Metrics, injected.Flows, injected.Delay95, injected.JainIndex)
	}
}

func TestPublicAPIForecaster(t *testing.T) {
	m := sprout.NewModel(sprout.Params{})
	f := sprout.NewDeliveryForecaster(m)
	for i := 0; i < 100; i++ {
		f.Tick(6, sprout.ObsExact)
	}
	fc := f.Forecast(nil)
	if len(fc) != 8 || fc[7] <= 0 {
		t.Errorf("forecast = %v", fc)
	}
	e := sprout.NewEWMAForecaster()
	e.Tick(6, sprout.ObsExact)
	if e.Rate() != 6 {
		t.Errorf("ewma rate = %v", e.Rate())
	}
	if sprout.DefaultParams().NumBins != 256 {
		t.Error("default params wrong")
	}
	if len(sprout.Schemes()) != 10 {
		t.Errorf("schemes = %v", sprout.Schemes())
	}
}
