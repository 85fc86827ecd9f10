package sim

import (
	"testing"
	"time"
)

// Regression test for the cancelled-event leak: a workload that keeps
// scheduling timers and cancelling nearly all of them (pacing, delayed
// acks, retransmission timers) must not grow the heap without bound.
// Lazy compaction keeps the physical queue proportional to the live
// event count, and the slot table is recycled through the free list.
func TestCancelledEventsAreCompacted(t *testing.T) {
	l := NewLoop(1)
	const rounds = 100
	const perRound = 200
	var maxHeap, maxSlots int
	for r := 0; r < rounds; r++ {
		timers := make([]Timer, perRound)
		deadline := time.Duration(r+1) * time.Second
		for i := range timers {
			timers[i] = l.At(deadline, func() { t.Error("cancelled timer fired") })
		}
		for i := range timers {
			if !timers[i].Stop() {
				t.Fatal("Stop on a pending timer returned false")
			}
		}
		if n := len(l.heap); n > maxHeap {
			maxHeap = n
		}
		if n := len(l.slots); n > maxSlots {
			maxSlots = n
		}
	}
	// Without compaction the heap would hold rounds*perRound = 20000
	// dead entries. With it, occupancy stays near one round's worth.
	if bound := 2*perRound + compactMin; maxHeap > bound {
		t.Errorf("heap occupancy reached %d entries, want <= %d", maxHeap, bound)
	}
	if bound := 2 * perRound; maxSlots > bound {
		t.Errorf("slot table grew to %d, want <= %d (free list should recycle)", maxSlots, bound)
	}
	if l.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling everything, want 0", l.Pending())
	}
	l.Run() // must not fire anything (t.Error above catches it)
	if n := len(l.heap); n != 0 {
		t.Errorf("heap holds %d entries after Run, want 0", n)
	}
}

// Compaction must not disturb pop order: live events fire in the same
// (time, schedule) order whether or not a compaction pass ran.
func TestCompactionPreservesOrder(t *testing.T) {
	l := NewLoop(1)
	var got []int
	var cancel []Timer
	// Interleave survivors with soon-to-die timers, cancelling two of
	// every three so the threshold trips and the compaction pass
	// rebuilds a heap containing every third entry.
	for i := 0; i < 300; i++ {
		i := i
		at := time.Duration(997*i%300) * time.Millisecond
		if i%3 == 0 {
			l.At(at, func() { got = append(got, i) })
		} else {
			cancel = append(cancel, l.At(at, func() { t.Error("dead timer fired") }))
		}
	}
	for i := range cancel {
		cancel[i].Stop()
	}
	l.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	// Reconstruct the expected order: ascending (at, schedule seq).
	prevAt, prevSeq := time.Duration(-1), -1
	for _, i := range got {
		at := time.Duration(997*i%300) * time.Millisecond
		if at < prevAt || (at == prevAt && i < prevSeq) {
			t.Fatalf("event %d (at %v) fired out of order", i, at)
		}
		prevAt, prevSeq = at, i
	}
}

// Allocation budget: scheduling and firing events allocates nothing
// once the loop's arrays have grown to the working set. This is the
// core zero-allocation claim — the benchmarks measure it, this test
// enforces it.
func TestAfterStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	l := NewLoop(1)
	fn := func() {}
	// Warm up: grow the heap, slot table, and free list.
	for i := 0; i < 128; i++ {
		l.After(time.Duration(i%13)*time.Microsecond, fn)
	}
	l.Run()
	if avg := testing.AllocsPerRun(200, func() {
		l.After(time.Microsecond, fn)
		l.Step()
	}); avg != 0 {
		t.Errorf("After+Step allocates %v/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		tm := l.After(time.Microsecond, fn)
		tm.Stop()
	}); avg != 0 {
		t.Errorf("After+Stop allocates %v/op in steady state, want 0", avg)
	}
}

// A running Periodic re-arms itself through one closure built in Every,
// so each tick recycles the expired slot and allocates nothing.
func TestPeriodicReArmAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	l := NewLoop(1)
	n := 0
	p := Every(l, time.Millisecond, func() { n++ })
	defer p.Stop()
	for i := 0; i < 64; i++ {
		l.Step() // warm up
	}
	if avg := testing.AllocsPerRun(200, func() { l.Step() }); avg != 0 {
		t.Errorf("Periodic tick allocates %v/op in steady state, want 0", avg)
	}
	if n < 264 {
		t.Fatalf("periodic fired %d times, want >= 264", n)
	}
}

func BenchmarkAfterStep(b *testing.B) {
	l := NewLoop(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		l.After(time.Duration(i%13)*time.Microsecond, fn)
	}
	l.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(time.Microsecond, fn)
		l.Step()
	}
}

func BenchmarkScheduleStopChurn(b *testing.B) {
	l := NewLoop(1)
	fn := func() {}
	var timers [64]Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range timers {
			timers[j] = l.After(time.Duration(j)*time.Microsecond, fn)
		}
		for j := range timers {
			timers[j].Stop()
		}
		for l.Step() {
		}
	}
}

func BenchmarkPeriodicTick(b *testing.B) {
	l := NewLoop(1)
	p := Every(l, time.Millisecond, func() {})
	defer p.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

// BenchmarkDenseTimers measures the regime the video workload lives in:
// thousands of outstanding timers with constant churn, where every
// schedule and fire pays the heap's O(log n) sift.
func BenchmarkDenseTimers(b *testing.B) {
	l := NewLoop(1)
	fn := func() {}
	// Standing population: 8k timers spread over 100ms.
	for i := 0; i < 8192; i++ {
		l.After(time.Duration(i%100)*time.Millisecond+time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(50*time.Millisecond, fn)
		l.Step()
	}
}
