package tick

import (
	"testing"
	"time"
)

func TestFakeAdvanceFiresInOrder(t *testing.T) {
	f := NewFake()
	start := f.Now()
	t1 := f.NewTimer(10 * time.Second)
	t2 := f.NewTimer(5 * time.Second)
	f.Advance(20 * time.Second)
	// Both fired; t2's deadline precedes t1's.
	v2 := <-t2.C()
	v1 := <-t1.C()
	if !v2.Before(v1) {
		t.Fatalf("fire order: t2=%v t1=%v", v2, v1)
	}
	if got := f.Now().Sub(start); got != 20*time.Second {
		t.Fatalf("now advanced %v, want 20s", got)
	}
}

func TestFakeStopAndRearm(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer = false")
	}
	f.Advance(5 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	Rearm(tm, 2*time.Second)
	f.Advance(time.Second)
	select {
	case <-tm.C():
		t.Fatal("fired early")
	default:
	}
	f.Advance(time.Second)
	<-tm.C()
}

func TestFakeAdvanceToNext(t *testing.T) {
	f := NewFake()
	if _, ok := f.AdvanceToNext(); ok {
		t.Fatal("AdvanceToNext with no timers = true")
	}
	f.NewTimer(3 * time.Second)
	f.NewTimer(7 * time.Second)
	d, ok := f.AdvanceToNext()
	if !ok || d != 3*time.Second {
		t.Fatalf("first advance = %v,%v", d, ok)
	}
	d, ok = f.AdvanceToNext()
	if !ok || d != 4*time.Second {
		t.Fatalf("second advance = %v,%v", d, ok)
	}
}

func TestFakeBlockUntilTimers(t *testing.T) {
	f := NewFake()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.BlockUntilTimers(2)
	}()
	f.NewTimer(time.Second)
	f.NewTimer(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("BlockUntilTimers never returned")
	}
}

// TestFakeKeepsOnlyArmedTimers: a Fake holds a timer only while it is
// armed — stopped and fired timers leave its list, a Reset one rejoins
// it — so a long run that arms and stops timers by the thousand keeps
// none of them, and firing stays earliest-first.
func TestFakeKeepsOnlyArmedTimers(t *testing.T) {
	f := NewFake()
	for i := 0; i < 10000; i++ {
		tm := f.NewTimer(time.Duration(i%7+1) * time.Second)
		if i%2 == 0 {
			tm.Stop()
		} else {
			Rearm(tm, time.Second)
			tm.Stop()
		}
	}
	if n := len(f.timers); n != 0 {
		t.Fatalf("after 10000 arm/stop cycles the fake keeps %d timers, want 0", n)
	}
	late := f.NewTimer(5 * time.Second)
	early := f.NewTimer(time.Second)
	mid := f.NewTimer(2 * time.Second)
	if late.Stop(); late.Reset(3 * time.Second) {
		t.Fatal("Reset of a stopped timer reported it armed")
	}
	if n := len(f.timers); n != 3 {
		t.Fatalf("armed timers = %d, want 3", n)
	}
	for i, want := range []Timer{early, mid, late} {
		d, ok := f.AdvanceToNext()
		if !ok || d != time.Second {
			t.Fatalf("advance %d = %v,%v, want 1s", i, d, ok)
		}
		select {
		case <-want.C():
		default:
			t.Fatalf("advance %d fired the wrong timer", i)
		}
		if n := len(f.timers); n != 2-i {
			t.Fatalf("after fire %d the fake keeps %d timers, want %d", i, n, 2-i)
		}
	}
	if late.Stop() {
		t.Fatal("Stop of a fired timer reported it armed")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	if c.Now().IsZero() {
		t.Fatal("real Now is zero")
	}
	Rearm(tm, time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("rearmed real timer never fired")
	}
}
