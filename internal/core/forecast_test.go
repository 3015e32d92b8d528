package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func trainedForecaster(t testing.TB, rate float64, seed int64) *DeliveryForecaster {
	m := NewModel(Params{})
	f := NewDeliveryForecaster(m)
	rng := rand.New(rand.NewSource(seed))
	tau := m.Params().Tick.Seconds()
	for i := 0; i < 400; i++ {
		f.Tick(float64(poissonSample(rng, rate*tau)), ObsExact)
	}
	return f
}

func TestForecastNondecreasing(t *testing.T) {
	f := trainedForecaster(t, 300, 1)
	fc := f.Forecast(nil)
	if len(fc) != 8 {
		t.Fatalf("forecast length = %d, want 8", len(fc))
	}
	for i := 1; i < len(fc); i++ {
		if fc[i] < fc[i-1] {
			t.Errorf("forecast decreases at tick %d: %v", i, fc)
		}
	}
}

func TestForecastCautious(t *testing.T) {
	// The 95%-confidence forecast must be below the expected delivery
	// count (mean rate × horizon).
	rate := 300.0
	f := trainedForecaster(t, rate, 2)
	fc := f.Forecast(nil)
	tau := f.TickDuration().Seconds()
	for i, q := range fc {
		expected := rate * tau * float64(i+1)
		if q >= expected {
			t.Errorf("tick %d: cautious forecast %v >= expectation %v", i, q, expected)
		}
	}
	// But not absurdly low: the one-tick forecast should be positive for
	// a solid 300 pkt/s link (6 pkt/tick expectation).
	if fc[0] <= 0 {
		t.Errorf("one-tick forecast = %v, want > 0", fc[0])
	}
}

func TestForecastCoverage(t *testing.T) {
	// Empirical validation of the 95% guarantee: train on a steady link,
	// then repeatedly simulate 8 ticks of Poisson deliveries at a rate
	// drawn from the same dynamics and check the forecast is met at
	// least ~90% of the time (the bound is conservative; the rate also
	// wanders, so exact coverage is above 95% for a steady link).
	rate := 400.0
	f := trainedForecaster(t, rate, 3)
	fc := f.Forecast(nil)
	rng := rand.New(rand.NewSource(99))
	tau := f.TickDuration().Seconds()
	const trials = 2000
	met := 0
	for tr := 0; tr < trials; tr++ {
		cum := 0
		ok := true
		for i := 0; i < 8; i++ {
			cum += poissonSample(rng, rate*tau)
			if float64(cum) < fc[i] {
				ok = false
				break
			}
		}
		if ok {
			met++
		}
	}
	frac := float64(met) / trials
	if frac < 0.90 {
		t.Errorf("forecast met in %.1f%% of trials, want >= 90%%", frac*100)
	}
}

func TestForecastConfidenceOrdering(t *testing.T) {
	// Lower confidence must never forecast fewer packets (§5.5).
	f := trainedForecaster(t, 300, 4)
	c95 := f.ForecastAt(nil, 0.95)
	c75 := f.ForecastAt(nil, 0.75)
	c50 := f.ForecastAt(nil, 0.50)
	c25 := f.ForecastAt(nil, 0.25)
	c05 := f.ForecastAt(nil, 0.05)
	for i := 0; i < 8; i++ {
		if !(c95[i] <= c75[i] && c75[i] <= c50[i] && c50[i] <= c25[i] && c25[i] <= c05[i]) {
			t.Errorf("tick %d: confidence ordering violated: %v %v %v %v %v",
				i, c95[i], c75[i], c50[i], c25[i], c05[i])
		}
	}
	if c05[7] <= c95[7] {
		t.Errorf("5%% confidence should forecast strictly more than 95%% at the horizon: %v vs %v",
			c05[7], c95[7])
	}
}

func TestForecastZeroAfterOutage(t *testing.T) {
	m := NewModel(Params{})
	f := NewDeliveryForecaster(m)
	for i := 0; i < 300; i++ {
		f.Tick(0, ObsExact)
	}
	fc := f.Forecast(nil)
	// After 6 seconds of silence the cautious forecast must be ~zero.
	if fc[0] > 1 {
		t.Errorf("one-tick forecast after long outage = %v, want ~0", fc[0])
	}
}

func TestForecastInvalidObservationSkips(t *testing.T) {
	// With valid=false ticks (sender idle), the model loosens but the
	// posterior mean must stay put, and the forecast must stay at or
	// above that of a model which actually *observed* silence. A few
	// idle ticks (one flight gap) must not collapse the forecast.
	fIdle := trainedForecaster(t, 300, 5)
	fSilent := trainedForecaster(t, 300, 5)
	before := fIdle.Forecast(nil)
	for i := 0; i < 3; i++ { // a 60 ms gap between flights
		fIdle.Tick(0, ObsSkip)
		fSilent.Tick(0, ObsExact)
	}
	after := fIdle.Forecast(nil)
	silent := fSilent.Forecast(nil)
	if after[7] < before[7]*0.5 {
		t.Errorf("forecast collapsed after 3 idle ticks: %v -> %v", before[7], after[7])
	}
	if after[7] < silent[7] {
		t.Errorf("skipping observations (%v) should be no more pessimistic than observing silence (%v)",
			after[7], silent[7])
	}
	if mean := fIdle.Model().Mean(); mean < 200 {
		t.Errorf("posterior mean fell to %v after idle ticks", mean)
	}
}

func TestForecastAppendSemantics(t *testing.T) {
	f := trainedForecaster(t, 100, 6)
	buf := make([]float64, 0, 16)
	out := f.Forecast(buf)
	if len(out) != 8 {
		t.Fatalf("len = %d", len(out))
	}
	out2 := f.Forecast(out)
	if len(out2) != 16 {
		t.Fatalf("append semantics broken: len = %d", len(out2))
	}
}

func TestForecasterInterfaceCompliance(t *testing.T) {
	var _ Forecaster = (*DeliveryForecaster)(nil)
	var _ Forecaster = (*EWMAForecaster)(nil)
}

func TestEWMAForecasterTracksRate(t *testing.T) {
	e := NewEWMAForecaster()
	if e.TickDuration() != 20*time.Millisecond || e.HorizonTicks() != 8 {
		t.Fatalf("defaults wrong: %v %v", e.TickDuration(), e.HorizonTicks())
	}
	for i := 0; i < 200; i++ {
		e.Tick(6, ObsExact)
	}
	if math.Abs(e.Rate()-6) > 1e-9 {
		t.Errorf("rate = %v, want 6", e.Rate())
	}
	fc := e.Forecast(nil)
	for i := range fc {
		want := 6 * float64(i+1)
		if math.Abs(fc[i]-want) > 1e-9 {
			t.Errorf("forecast[%d] = %v, want %v", i, fc[i], want)
		}
	}
}

func TestEWMAForecasterNotCautious(t *testing.T) {
	// Sprout-EWMA forecasts the mean; Sprout forecasts the 5th
	// percentile. For the same observations EWMA must be higher.
	e := NewEWMAForecaster()
	f := trainedForecaster(t, 300, 7)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 400; i++ {
		e.Tick(float64(poissonSample(rng, 300*0.02)), ObsExact)
	}
	ef := e.Forecast(nil)
	sf := f.Forecast(nil)
	if ef[7] <= sf[7] {
		t.Errorf("EWMA horizon forecast %v should exceed cautious %v", ef[7], sf[7])
	}
}

func TestEWMAForecasterSkipsInvalid(t *testing.T) {
	e := NewEWMAForecaster()
	e.Tick(10, ObsExact)
	r := e.Rate()
	e.Tick(0, ObsSkip)
	if e.Rate() != r {
		t.Errorf("invalid tick changed rate: %v -> %v", r, e.Rate())
	}
}

func TestEWMAForecasterSlowToSeeOutage(t *testing.T) {
	// The paper explains Sprout-EWMA's higher delay: an EWMA is a
	// low-pass filter that keeps forecasting deliveries into an outage.
	e := NewEWMAForecaster()
	m := NewModel(Params{})
	f := NewDeliveryForecaster(m)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		k := float64(poissonSample(rng, 400*0.02))
		e.Tick(k, ObsExact)
		f.Tick(k, ObsExact)
	}
	// Two ticks into an outage:
	for i := 0; i < 2; i++ {
		e.Tick(0, ObsExact)
		f.Tick(0, ObsExact)
	}
	ef := e.Forecast(nil)
	sf := f.Forecast(nil)
	if ef[7] < sf[7]*2 {
		t.Errorf("EWMA should still forecast much more than cautious Sprout early in an outage: %v vs %v",
			ef[7], sf[7])
	}
}

func BenchmarkForecast(b *testing.B) {
	f := trainedForecaster(b, 300, 10)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.Forecast(buf[:0])
	}
}

func BenchmarkTickAndForecast(b *testing.B) {
	// One full receiver cycle: inference update plus forecast, as
	// performed every 20 ms at runtime. The paper reports <5% of a 2012
	// CPU core; this bench verifies the same order of magnitude.
	f := trainedForecaster(b, 300, 11)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Tick(6, ObsExact)
		buf = f.Forecast(buf[:0])
	}
}

func BenchmarkNewDeliveryForecaster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewModel(Params{})
		NewDeliveryForecaster(m)
	}
}
