package main

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/invariant"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
)

// TestAssembledMatchesEntry holds the traced run to its contract: a
// self-assembled, wrapped session produces exactly the figure-table row
// the public entry point produces for the same inputs. Invariant
// checking is on, so the transport's liveness check reaches the
// steering wrapper's FailsOver.
func TestAssembledMatchesEntry(t *testing.T) {
	invariant.SetEnabled(true)
	defer invariant.SetEnabled(false)

	var ss []session
	for i, name := range bulkCCs {
		ss = append(ss, session{cc: name, policy: core.PolicyDChannel, dur: 3 * time.Second, seed: derive(7, i)})
	}
	for _, tr := range []string{"lowband-driving", "mmwave-driving"} {
		for _, pol := range []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyPriority} {
			ss = append(ss, session{video: true, trace: tr, policy: pol, dur: 5 * time.Second, seed: derive(7, 9)})
		}
	}
	ss = append(ss, fleetShaped(7, 4)...)

	for _, s := range ss {
		want, err := runEntry(s)
		if err != nil {
			t.Fatalf("%s: entry: %v", s, err)
		}
		var ls layerStats
		got, setup, err := runAssembled(s, &ls, false)
		if err != nil {
			t.Fatalf("%s: assembled: %v", s, err)
		}
		if got != want {
			t.Errorf("%s: assembled row differs\n entry     %s\n assembled %s", s, want, got)
		}
		if setup <= 0 || ls.loopNs <= 0 || ls.events == 0 || ls.picks == 0 {
			t.Errorf("%s: layer stats not recorded: setup=%v %+v", s, setup, ls)
		}
		if s.video && (ls.ccCalls != 0 || ls.acks != 0) {
			t.Errorf("%s: video session made %d cc calls and %d acks", s, ls.ccCalls, ls.acks)
		}
		if !s.video && ls.acks == 0 {
			t.Errorf("%s: bulk session saw no acks", s)
		}
	}
}

// TestSetupOnlyDoesNotRun checks that a set-up-only build stops before
// the loop and records no layer costs.
func TestSetupOnlyDoesNotRun(t *testing.T) {
	for _, s := range append(bulkSessions(1)[:1], videoSessions(1)[0]) {
		out, setup, err := runAssembled(s, nil, true)
		if err != nil || out != "" || setup <= 0 {
			t.Errorf("%s: setup-only = (%q, %v, %v)", s, out, setup, err)
		}
	}
}

// TestWrappersForwardInterfaces checks that the timing wrappers expose
// the optional interfaces the stack type-asserts for, with the wrapped
// value's answers.
func TestWrappersForwardInterfaces(t *testing.T) {
	loop := sim.NewLoop(1)
	var ls layerStats
	for _, name := range []string{"cubic", "hvc-bbr", "copa"} {
		alg, err := core.NewCC(name)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := wrapCC(alg, loop, &ls).(cc.Configured)
		if !ok || w.Config() != alg.(cc.Configured).Config() {
			t.Errorf("%s: wrapper does not forward cc.Configured", name)
		}
	}
	g := core.Cellular(loop, trace.Constant("embb-fixed", 50*time.Millisecond, 60e6))
	for _, name := range []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyPriority} {
		pol, err := core.NewPolicy(name, g, channel.A)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapPolicy(pol, loop, &ls)
		la, ok := w.(steering.LivenessAware)
		if !ok || la.FailsOver() != pol.(steering.LivenessAware).FailsOver() {
			t.Errorf("%s: wrapper does not forward steering.LivenessAware", name)
		}
		if steering.Reason(w) != steering.Reason(pol) {
			t.Errorf("%s: wrapper reason %q, policy reason %q", name, steering.Reason(w), steering.Reason(pol))
		}
	}
}
