package main

import (
	"bytes"
	"fmt"
	"time"

	"hvc/internal/core"
	"hvc/internal/fleet"
)

// A workload is one named load the benchmark runs. Its pass is the unit
// that is timed: bulk and video run a fixed list of sessions through
// the public entry points, fleet runs one fleet.Run. setup lists the
// sessions whose stack construction setup_s times. sessions lists what
// a bulk or video pass runs, which the traced run also assembles; for
// fleet it is the fleet-shaped sample the traced run assembles.
type workload struct {
	name     string
	fleet    bool
	setup    func(seed int64) []session
	sessions func(seed int64) []session
}

var workloads = map[string]workload{
	"bulk":  {name: "bulk", setup: bulkSessions, sessions: bulkSessions},
	"video": {name: "video", setup: videoSessions, sessions: videoSessions},
	"fleet": {name: "fleet", fleet: true, setup: fleetSetupSessions, sessions: fleetSampleSessions},
}

// derive hashes (benchmark seed, index) into a per-session seed with
// the splitmix64 finalizer, so sessions get unrelated streams.
func derive(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// bulkCCs are Fig. 1a's algorithms, the §3.2 HVC-aware variants and
// Copa, costliest first. A pass runs each for bulkSeeds derived seeds,
// so its many mid-sized sessions balance across workers even when one
// CPU runs slower than the other; a few 60 s sessions would leave the
// pass's wall time hostage to whichever CPU drew the longest one.
var bulkCCs = []string{"cubic", "hvc-bbr", "hvc-vegas", "copa", "bbr", "vegas", "hvc-vivace", "vivace"}

const bulkSeeds = 2

// bulkSessions is one long reliable flow per CCA and derived seed over
// Fig. 1's fixed eMBB+URLLC pair with DChannel steering.
func bulkSessions(seed int64) []session {
	var out []session
	for _, name := range bulkCCs {
		for k := 0; k < bulkSeeds; k++ {
			out = append(out, session{cc: name, policy: core.PolicyDChannel, dur: 30 * time.Second, seed: derive(seed, k)})
		}
	}
	return out
}

// videoSeeds is how many derived seeds the video pass streams per
// trace × policy cell.
const videoSeeds = 4

// videoSessions is Fig. 2's SVC stream over both driving traces and
// all three policies, for videoSeeds derived seeds.
func videoSessions(seed int64) []session {
	var out []session
	for k := 0; k < videoSeeds; k++ {
		for _, tr := range []string{"lowband-driving", "mmwave-driving"} {
			for _, pol := range []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyPriority} {
				out = append(out, session{
					video: true, trace: tr, policy: pol,
					dur: 300 * time.Second, seed: derive(seed, k),
				})
			}
		}
	}
	return out
}

// fleetUEs is the default hvcfleet population size.
const fleetUEs = 1000

// fleetSpec is the default hvcfleet population: bulk, video and web at
// 1:1:1, BBR, DChannel, lowband-driving, 2 s sessions.
func fleetSpec(seed int64) fleet.Spec {
	spec, err := fleet.ParseSpec(fmt.Sprintf("ues=%d seed=%d", fleetUEs, seed))
	if err != nil {
		panic(err) // the spec is fixed apart from the seed
	}
	return spec
}

// fleetShaped returns n sessions shaped like the fleet's bulk and
// video UEs, alternating the two apps. fleet.Run derives its UE
// profiles privately, so these take their seeds from the benchmark
// seed instead; the work per session is the same.
func fleetShaped(seed int64, n int) []session {
	spec := fleetSpec(seed)
	out := make([]session, n)
	for i := range out {
		out[i] = session{
			video: i%2 == 1, cc: spec.CC, policy: spec.Policies[0],
			trace: spec.Traces[0], dur: spec.Dur, seed: derive(seed, i),
		}
	}
	return out
}

// fleetSetupSessions stands in for the set-up of the fleet's bulk and
// video UEs. Web UEs are not mirrored: their set-up lives inside
// core.RunWeb and has no public seam.
func fleetSetupSessions(seed int64) []session {
	apps := fleetSpec(seed).AppCounts()
	return fleetShaped(seed, apps[fleet.AppBulk]+apps[fleet.AppVideo])
}

// fleetSampleSize is how many fleet-shaped sessions the traced fleet
// run assembles for its layer breakdown.
const fleetSampleSize = 256

func fleetSampleSessions(seed int64) []session { return fleetShaped(seed, fleetSampleSize) }

// runFleet runs one fleet pass and returns its hvc-fleet-report/v1
// bytes. progress is called after each shard completes.
func runFleet(seed int64, workers int, progress func()) (string, error) {
	res, err := fleet.Run(fleetSpec(seed), fleet.Options{Workers: workers, Progress: func(int, int) { progress() }})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}
