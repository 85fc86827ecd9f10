package main

import (
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
)

// layerStats is one traced session's outside-in cost breakdown, or the
// sum of several. Times are host nanoseconds; counts are exact.
type layerStats struct {
	setupNs int64 // stack construction, before loop.RunUntil
	traceNs int64 // share of setupNs spent realizing the eMBB trace
	loopNs  int64 // inside loop.RunUntil

	events      uint64 // loop.Events() after the run
	pendingPeak int    // largest loop.Pending() seen at a wrapper call

	ccCalls     int64
	ccNs        int64
	ccAckNs     int64
	acks        int64
	inflightSum int64 // Σ AckEvent.InFlight over acks, bytes
	inflightMax int64

	picks   int64
	copies  int64 // Σ channels returned per Pick
	steerNs int64

	netemPkts  int64
	netemDrops int64
	bytesSent  int64
	bytesRecv  int64
	rtos       int64
}

func (s *layerStats) add(o *layerStats) {
	s.setupNs += o.setupNs
	s.traceNs += o.traceNs
	s.loopNs += o.loopNs
	s.events += o.events
	s.pendingPeak = max(s.pendingPeak, o.pendingPeak)
	s.ccCalls += o.ccCalls
	s.ccNs += o.ccNs
	s.ccAckNs += o.ccAckNs
	s.acks += o.acks
	s.inflightSum += o.inflightSum
	s.inflightMax = max(s.inflightMax, o.inflightMax)
	s.picks += o.picks
	s.copies += o.copies
	s.steerNs += o.steerNs
	s.netemPkts += o.netemPkts
	s.netemDrops += o.netemDrops
	s.bytesSent += o.bytesSent
	s.bytesRecv += o.bytesRecv
	s.rtos += o.rtos
}

// observePending samples the loop's pending-timer count. It reads a
// field and schedules nothing, so the simulation is unchanged.
func (s *layerStats) observePending(loop *sim.Loop) {
	if p := loop.Pending(); p > s.pendingPeak {
		s.pendingPeak = p
	}
}

// timedCC counts every call into a congestion controller and times the
// event callbacks. It forwards cc.Configured with the same fallback
// core.CCFingerprint applies to an algorithm without it, so wrapping is
// invisible to the stack.
type timedCC struct {
	alg  cc.Algorithm
	loop *sim.Loop
	ls   *layerStats
}

func wrapCC(alg cc.Algorithm, loop *sim.Loop, ls *layerStats) cc.Algorithm {
	return &timedCC{alg: alg, loop: loop, ls: ls}
}

func (w *timedCC) count() {
	w.ls.ccCalls++
	w.ls.observePending(w.loop)
}

func (w *timedCC) enter() time.Time {
	w.count()
	return time.Now()
}

func (w *timedCC) Name() string { return w.alg.Name() }

// CWND and PacingRate are counted but not timed: the transport polls
// them several times per ack, they return a field or two, and a pair of
// clock reads would cost more than the call.
func (w *timedCC) CWND() int {
	w.count()
	return w.alg.CWND()
}

func (w *timedCC) PacingRate() float64 {
	w.count()
	return w.alg.PacingRate()
}

func (w *timedCC) OnSent(now time.Duration, bytes int) {
	t := w.enter()
	w.alg.OnSent(now, bytes)
	w.ls.ccNs += int64(time.Since(t))
}

func (w *timedCC) OnAck(ev cc.AckEvent) {
	w.ls.acks++
	w.ls.inflightSum += int64(ev.InFlight)
	w.ls.inflightMax = max(w.ls.inflightMax, int64(ev.InFlight))
	t := w.enter()
	w.alg.OnAck(ev)
	d := int64(time.Since(t))
	w.ls.ccNs += d
	w.ls.ccAckNs += d
}

func (w *timedCC) OnLoss(ev cc.LossEvent) {
	t := w.enter()
	w.alg.OnLoss(ev)
	w.ls.ccNs += int64(time.Since(t))
}

// Config implements cc.Configured.
func (w *timedCC) Config() string {
	if c, ok := w.alg.(cc.Configured); ok {
		return c.Config()
	}
	return w.alg.Name()
}

// timedPolicy times every steering decision. It forwards
// steering.LivenessAware and steering.Reasoner with the fallbacks their
// callers apply to a policy that lacks them (no failover; an empty
// reason means "use the name"), so the transport's liveness invariant
// and telemetry reasons fire exactly as without the wrapper.
type timedPolicy struct {
	pol  steering.Policy
	loop *sim.Loop
	ls   *layerStats
}

func wrapPolicy(pol steering.Policy, loop *sim.Loop, ls *layerStats) steering.Policy {
	return &timedPolicy{pol: pol, loop: loop, ls: ls}
}

func (w *timedPolicy) Name() string { return w.pol.Name() }

func (w *timedPolicy) Pick(p *packet.Packet) []*channel.Channel {
	w.ls.observePending(w.loop)
	t := time.Now()
	chs := w.pol.Pick(p)
	w.ls.steerNs += int64(time.Since(t))
	w.ls.picks++
	w.ls.copies += int64(len(chs))
	return chs
}

// FailsOver implements steering.LivenessAware.
func (w *timedPolicy) FailsOver() bool {
	la, ok := w.pol.(steering.LivenessAware)
	return ok && la.FailsOver()
}

// LastReason implements steering.Reasoner.
func (w *timedPolicy) LastReason() string {
	if r, ok := w.pol.(steering.Reasoner); ok {
		return r.LastReason()
	}
	return ""
}
