package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refEvent is one scheduled occurrence in the reference scheduler: a
// flat slice scanned for the (at, seq) minimum on every step. It is
// obviously correct and hopelessly slow — exactly what an oracle for
// the inline heap should be.
type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	cancelled bool
	fired     bool
}

type refSched struct {
	events  []refEvent
	now     time.Duration
	seq     uint64
	pending int
	fired   []int
}

func (r *refSched) schedule(d time.Duration, id int) int {
	if d < 0 {
		d = 0
	}
	r.events = append(r.events, refEvent{at: r.now + d, seq: r.seq, id: id})
	r.seq++
	r.pending++
	return len(r.events) - 1
}

// cancel mirrors Timer.Stop: it reports whether the event was still
// pending.
func (r *refSched) cancel(idx int) bool {
	e := &r.events[idx]
	if e.fired || e.cancelled {
		return false
	}
	e.cancelled = true
	r.pending--
	return true
}

// step runs the earliest pending event, mirroring Loop.Step.
func (r *refSched) step() bool {
	best := -1
	for i := range r.events {
		e := &r.events[i]
		if e.fired || e.cancelled {
			continue
		}
		if best == -1 || e.at < r.events[best].at ||
			(e.at == r.events[best].at && e.seq < r.events[best].seq) {
			best = i
		}
	}
	if best == -1 {
		return false
	}
	r.events[best].fired = true
	r.pending--
	r.now = r.events[best].at
	r.fired = append(r.fired, r.events[best].id)
	return true
}

// FuzzLoopSchedule drives the event loop and the reference scheduler
// with the same byte-derived program of schedule / cancel / step
// operations and demands identical observable behaviour: firing order,
// clock, pending count, event count, and Stop results. Delays come in
// four step sizes — 37 µs, 1 ms, 977 ms and 13 h — so one program mixes
// sub-millisecond timers with events seconds to months away. It
// exercises the inline heap's sift paths, the generation-counted timer
// handles, and lazy compaction (cancel-heavy inputs push past the
// threshold).
func FuzzLoopSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 2, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 2, 0})
	// Cancel-heavy: many schedules, then interleaved cancels.
	seed := make([]byte, 0, 400)
	for i := 0; i < 100; i++ {
		seed = append(seed, 0, byte(i*7))
	}
	for i := 0; i < 100; i++ {
		seed = append(seed, 1, byte(i))
	}
	f.Add(seed)
	f.Fuzz(checkScheduleProgram)
}

// FuzzLoopScheduleMagnitudes runs the same differential check as
// FuzzLoopSchedule from a corpus that starts in the long-delay opcodes:
// 977 ms and 13 h steps interleaved with short timers, so mutation
// begins from programs whose clock jumps by seconds to days.
func FuzzLoopScheduleMagnitudes(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 2, 0, 1, 0, 0, 0})
	f.Add([]byte{4, 200, 0, 0, 2, 0, 4, 100, 2, 0, 2, 0})
	// Day-scale timers mixed with short ones.
	f.Add([]byte{5, 1, 0, 3, 2, 0, 5, 2, 2, 0, 2, 0, 2, 0})
	// Cancel-heavy churn across every magnitude.
	seed := make([]byte, 0, 200)
	for i := 0; i < 50; i++ {
		seed = append(seed, byte(i%6), byte(i*11))
	}
	for i := 0; i < 50; i++ {
		seed = append(seed, 1, byte(i*3))
	}
	f.Add(seed)
	f.Fuzz(checkScheduleProgram)
}

// TestLoopScheduleRandom soaks the same differential check with long
// random programs, so plain `go test` reaches deep queues and day-scale
// clock jumps without waiting for the fuzzer.
func TestLoopScheduleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 4096)
	for trial := 0; trial < 20; trial++ {
		rng.Read(data)
		checkScheduleProgram(t, data)
	}
}

// checkScheduleProgram runs one byte-derived program on a Loop and on
// refSched, failing t at the first observable difference.
func checkScheduleProgram(t *testing.T, data []byte) {
	if len(data) > 4096 {
		data = data[:4096]
	}
	l := NewLoop(1)
	ref := &refSched{}
	var got []int
	var timers []Timer
	var refIdx []int
	nextID := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%6, data[i+1]
		switch op {
		case 0, 3, 4, 5: // schedule at one of four step sizes
			// Past a century of virtual time, stop scheduling so
			// now+d stays far from int64 overflow.
			if l.Now() > 100*365*24*time.Hour {
				continue
			}
			id := nextID
			nextID++
			d := time.Duration(arg) * [...]time.Duration{
				0: time.Millisecond,
				3: 37 * time.Microsecond,
				4: 977 * time.Millisecond,
				5: 13 * time.Hour,
			}[op]
			timers = append(timers, l.After(d, func() { got = append(got, id) }))
			refIdx = append(refIdx, ref.schedule(d, id))
		case 1: // cancel an arbitrary earlier timer
			if len(timers) == 0 {
				continue
			}
			j := int(arg) % len(timers)
			stopped := timers[j].Stop()
			if want := ref.cancel(refIdx[j]); stopped != want {
				t.Fatalf("op %d: Stop(timer %d) = %v, reference says %v", i/2, j, stopped, want)
			}
		case 2: // run one event
			stepped := l.Step()
			if want := ref.step(); stepped != want {
				t.Fatalf("op %d: Step() = %v, reference says %v", i/2, stepped, want)
			}
		}
		if l.Now() != ref.now {
			t.Fatalf("op %d: Now() = %v, reference clock %v", i/2, l.Now(), ref.now)
		}
		if l.Pending() != ref.pending {
			t.Fatalf("op %d: Pending() = %d, reference %d", i/2, l.Pending(), ref.pending)
		}
	}
	// Drain both schedulers and compare the complete firing order.
	l.Run()
	for ref.step() {
	}
	if len(got) != len(ref.fired) {
		t.Fatalf("loop fired %d events, reference fired %d", len(got), len(ref.fired))
	}
	for i := range got {
		if got[i] != ref.fired[i] {
			t.Fatalf("firing order diverges at %d: loop ran event %d, reference %d\nloop: %v\nref:  %v",
				i, got[i], ref.fired[i], got, ref.fired)
		}
	}
	if l.Now() != ref.now {
		t.Fatalf("final clock %v, reference %v", l.Now(), ref.now)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", l.Pending())
	}
	if l.Events() != uint64(len(ref.fired)) {
		t.Fatalf("Events() = %d after drain, reference fired %d", l.Events(), len(ref.fired))
	}
}
