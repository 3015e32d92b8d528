package tcp

import (
	"testing"
	"time"
)

func TestCubicTimeoutCollapses(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(func() time.Duration { return now })
	c.ssthresh = 5
	srtt := 50 * time.Millisecond
	for i := 0; i < 50; i++ {
		now += 10 * time.Millisecond
		c.OnAck(1, srtt, srtt, srtt)
	}
	c.OnTimeout()
	if c.Window() != 1 {
		t.Errorf("cwnd after timeout = %v, want 1", c.Window())
	}
	// Slow start resumes toward the reduced ssthresh.
	for i := 0; i < 3; i++ {
		c.OnAck(1, srtt, srtt, srtt)
	}
	if c.Window() < 3 {
		t.Errorf("slow start did not resume: %v", c.Window())
	}
}

func TestCubicFastConvergence(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(func() time.Duration { return now })
	c.cwnd = 100
	c.wMax = 200 // previous max above current: fast convergence kicks in
	c.OnLoss()
	if c.wMax >= 100 {
		t.Errorf("fast convergence should reduce wMax below cwnd: %v", c.wMax)
	}
}

func TestCubicPlateauStillGrows(t *testing.T) {
	// At the plateau (cwnd == wMax), growth must be tiny but nonzero so
	// the flow keeps probing.
	now := time.Duration(0)
	c := NewCubic(func() time.Duration { return now })
	c.ssthresh = 1
	c.wMax = initialWindow
	srtt := 50 * time.Millisecond
	w := c.Window()
	for i := 0; i < 5; i++ {
		c.OnAck(1, srtt, srtt, srtt)
	}
	if c.Window() <= w {
		t.Errorf("no growth at plateau: %v", c.Window())
	}
}

func TestVegasTimeoutAndLoss(t *testing.T) {
	v := NewVegas()
	v.cwnd = 40
	v.OnLoss()
	if v.Window() != 20 {
		t.Errorf("after loss: %v, want 20", v.Window())
	}
	v.OnTimeout()
	if v.Window() != 1 {
		t.Errorf("after timeout: %v, want 1", v.Window())
	}
	// Floors: repeated losses never go below 2.
	for i := 0; i < 10; i++ {
		v.OnLoss()
	}
	if v.Window() < 2 {
		t.Errorf("window fell below floor: %v", v.Window())
	}
}

func TestVegasSlowStartExitsOnQueue(t *testing.T) {
	v := NewVegas()
	minRTT := 40 * time.Millisecond
	// Large diff during slow start: ssthresh snaps to cwnd.
	v.OnAck(int(v.Window())+1, 200*time.Millisecond, 0, minRTT)
	if v.ssthresh > v.cwnd {
		t.Errorf("slow start did not exit: ssthresh=%v cwnd=%v", v.ssthresh, v.cwnd)
	}
}

func TestVegasIgnoresUnprimedRTT(t *testing.T) {
	v := NewVegas()
	w := v.Window()
	v.OnAck(int(w)+1, 0, 0, time.Hour) // no RTT samples yet
	if v.Window() != w*2 && v.Window() != w {
		// In slow start with no samples the window must not act on
		// garbage; either unchanged or a clean doubling is acceptable,
		// but not a decrease.
		if v.Window() < w {
			t.Errorf("window decreased on unprimed RTT: %v -> %v", w, v.Window())
		}
	}
}

func TestCompoundLossSplitsWindow(t *testing.T) {
	c := NewCompound()
	c.cwnd = 40
	c.dwnd = 60
	c.OnLoss()
	// cwnd halves; dwnd = win*(1-beta) - cwnd = 100*0.5 - 20 = 30.
	if c.cwnd != 20 {
		t.Errorf("cwnd = %v, want 20", c.cwnd)
	}
	if c.dwnd != 30 {
		t.Errorf("dwnd = %v, want 30", c.dwnd)
	}
	c.OnTimeout()
	if c.Window() != 1 {
		t.Errorf("after timeout window = %v, want 1", c.Window())
	}
}

func TestCompoundDwndNeverNegative(t *testing.T) {
	c := NewCompound()
	c.cwnd = 100
	c.dwnd = 5
	minRTT := 40 * time.Millisecond
	for i := 0; i < 5; i++ {
		c.OnAck(int(c.Window())+1, time.Second, time.Second, minRTT)
	}
	if c.dwnd < 0 {
		t.Errorf("dwnd went negative: %v", c.dwnd)
	}
}

func TestLEDBATLossHalves(t *testing.T) {
	l := NewLEDBAT()
	l.cwnd = 40
	l.OnLoss()
	if l.Window() != 20 {
		t.Errorf("after loss = %v, want 20", l.Window())
	}
	l.OnTimeout()
	if l.Window() != 2 {
		t.Errorf("after timeout = %v, want 2", l.Window())
	}
}

func TestLEDBATAtTargetIsNeutral(t *testing.T) {
	l := NewLEDBAT()
	minRTT := 40 * time.Millisecond
	w := l.Window()
	// Exactly at target: off_target = 0, no change.
	l.OnAck(10, minRTT+ledbatTarget, 0, minRTT)
	if l.Window() != w {
		t.Errorf("window moved at target: %v -> %v", w, l.Window())
	}
}

func TestLEDBATFloor(t *testing.T) {
	l := NewLEDBAT()
	l.cwnd = 2
	minRTT := 40 * time.Millisecond
	for i := 0; i < 100; i++ {
		l.OnAck(10, minRTT+time.Second, 0, minRTT) // far above target
	}
	if l.Window() < 2 {
		t.Errorf("window fell below floor: %v", l.Window())
	}
}

func TestReceiverOutOfOrderBuffering(t *testing.T) {
	loop := newLoopForTest()
	var acks []segnum
	rcv := NewReceiver(1, loop, connFn(func(p *networkPacket) {
		var h wireHeader
		if h.unmarshal(p.Payload) == nil && h.kind == kindAck {
			acks = append(acks, h.ack)
		}
	}), nil)
	deliver := func(seq segnum) {
		rcv.Receive(dataPacket(nil, 1, seq, 1500, 0))
	}
	deliver(0)
	deliver(2) // hole at 1
	deliver(3)
	deliver(1) // fills the hole
	want := []segnum{1, 1, 1, 4}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v", acks)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("acks = %v, want %v", acks, want)
			break
		}
	}
	if rcv.NextExpected() != 4 {
		t.Errorf("NextExpected = %d", rcv.NextExpected())
	}
	// Duplicate data counts but does not regress.
	deliver(2)
	if rcv.dupsIn != 1 {
		t.Errorf("dupsIn = %d", rcv.dupsIn)
	}
}

func TestSenderIgnoresGarbage(t *testing.T) {
	loop := newLoopForTest()
	snd := NewSender(SenderConfig{
		Flow: 1, Clock: loop, CC: NewRenoCC(),
		Conn: connFn(func(p *networkPacket) {}),
	})
	snd.Receive(&networkPacket{Payload: []byte{1, 2}}) // short
	snd.Receive(dataPacket(nil, 1, 0, 1500, 0))        // wrong kind
	snd.Receive(ackPacket(nil, 1, -1, 0))              // stale ack
	if snd.InFlight() != 0 && snd.sndUna != 0 {
		t.Errorf("garbage moved state: una=%d", snd.sndUna)
	}
}
