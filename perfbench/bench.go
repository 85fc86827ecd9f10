package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"hvc/internal/pool"
)

// minPasses is the fewest measured passes a run makes, however long
// each takes, so every reported time is a median of at least three.
const minPasses = 3

type bench struct {
	w       workload
	seed    int64
	seconds float64
	workers int
	chk     checker
}

// A pass is one timed execution of a list of outputs: the session rows
// of a bulk or video pass, or the single report of a fleet pass.
type pass struct {
	rows  []string
	errs  []error
	cost  hostCost
	tailS float64 // wall time after fewer jobs remained than workers
}

// checker counts outputs attempted and failed. An output fails when it
// errors or panics, or when its digest differs from the reference.
type checker struct {
	want              []string // reference digests; nil until known
	attempted, failed int
}

// reference checks p's outputs against the recorded digests; weight is
// the number of sessions one output stands for. With no recorded
// reference the first error-free pass becomes the reference, so later
// passes must reproduce it.
func (c *checker) reference(p pass, weight int) {
	if c.want == nil && errors.Join(p.errs...) == nil {
		c.want = make([]string, len(p.rows))
		for i, r := range p.rows {
			c.want[i] = digest(r)
		}
	}
	for i, r := range p.rows {
		c.attempted += weight
		switch {
		case p.errs[i] != nil:
			c.fail(weight, "output %d: %v", i, p.errs[i])
		case i >= len(c.want) || digest(r) != c.want[i]:
			c.fail(weight, "output %d: digest %s differs from the reference: %.300s", i, digest(r), r)
		}
	}
}

// same checks that the traced pass reproduced the untraced outputs.
func (c *checker) same(untraced, traced pass) {
	for i := range traced.rows {
		c.attempted++
		switch {
		case traced.errs[i] != nil:
			c.fail(1, "traced session %d: %v", i, traced.errs[i])
		case untraced.errs[i] != nil:
			c.fail(1, "untraced session %d: %v", i, untraced.errs[i])
		case traced.rows[i] != untraced.rows[i]:
			c.fail(1, "traced session %d differs:\n  untraced %s\n  traced   %s", i, untraced.rows[i], traced.rows[i])
		}
	}
}

func (c *checker) fail(weight int, format string, args ...any) {
	c.failed += weight
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// protect turns a panic into an error so one bad session is counted
// instead of ending the run.
func protect(fn func() (string, error)) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// runSessions runs fn over ss on the worker pool and times the whole.
func (b *bench) runSessions(ss []session, fn func(i int, s session) (string, error)) pass {
	p := pass{rows: make([]string, len(ss)), errs: make([]error, len(ss))}
	var stamps []time.Time // appended under the pool's lock
	runtime.GC()
	h0 := sampleHost()
	_, _ = pool.MapProgress(len(ss), b.workers, func(int) { stamps = append(stamps, time.Now()) },
		func(i int) (struct{}, error) {
			p.rows[i], p.errs[i] = protect(func() (string, error) { return fn(i, ss[i]) })
			return struct{}{}, nil // failures are counted per session, never abort the pass
		})
	h1 := sampleHost()
	p.cost = h0.to(h1)
	p.tailS = tail(stamps, b.workers, h0.wall, h1.wall)
	return p
}

// fleetPass runs one fleet.Run and times it. Its one output stands for
// all fleetUEs sessions.
func (b *bench) fleetPass() pass {
	var stamps []time.Time // appended under the pool's lock
	runtime.GC()
	h0 := sampleHost()
	report, err := protect(func() (string, error) {
		return runFleet(b.seed, b.workers, func() { stamps = append(stamps, time.Now()) })
	})
	h1 := sampleHost()
	return pass{rows: []string{report}, errs: []error{err}, cost: h0.to(h1), tailS: tail(stamps, b.workers, h0.wall, h1.wall)}
}

// entryPass is one untraced pass of the workload through its public
// entry points; sessions is how many sessions it ran.
func (b *bench) entryPass(ss []session) (p pass, sessions int) {
	if b.w.fleet {
		p = b.fleetPass()
		b.chk.reference(p, fleetUEs)
		return p, fleetUEs
	}
	p = b.runSessions(ss, func(_ int, s session) (string, error) { return runEntry(s) })
	b.chk.reference(p, 1)
	return p, len(ss)
}

// tail is the wall time from the moment fewer jobs remained than
// workers (so some worker sat idle) to the end of the pass, given the
// jobs' completion stamps.
func tail(stamps []time.Time, workers int, start, end time.Time) float64 {
	k := len(stamps) - workers
	if k < 0 {
		return end.Sub(start).Seconds()
	}
	return end.Sub(stamps[k]).Seconds()
}

// measureSetup builds every stack of ss without running it, several
// times, and returns the median summed set-up time in seconds.
func measureSetup(ss []session) (float64, error) {
	var vals []float64
	began := time.Now()
	for rep := 0; rep < 5 || (time.Since(began) < time.Second && rep < 200); rep++ {
		runtime.GC()
		var sum time.Duration
		for _, s := range ss {
			_, d, err := runAssembled(s, nil, true)
			if err != nil {
				return 0, fmt.Errorf("set up %s: %w", s, err)
			}
			sum += d
		}
		vals = append(vals, sum.Seconds())
	}
	return median(vals), nil
}

// untracedRun measures the end-to-end metrics: set-up, then timed
// passes until the run's seconds are spent.
func (b *bench) untracedRun() (map[string]metric, error) {
	setupS, err := measureSetup(b.w.setup(b.seed))
	if err != nil {
		return nil, err
	}
	ss := b.w.sessions(b.seed)
	var walls, cpus []float64
	sessions := 0
	began := time.Now()
	for n := 0; n < minPasses || time.Since(began).Seconds() < b.seconds; n++ {
		p, k := b.entryPass(ss)
		walls = append(walls, p.cost.wallS)
		cpus = append(cpus, p.cost.cpuS)
		sessions = k
	}
	wall := median(walls)
	return map[string]metric{
		"wall_s":      {wall, "s"},
		"cpu_s":       {median(cpus), "s"},
		"setup_s":     {setupS, "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"ues_per_s":   {float64(sessions) / wall, "1/s"},
	}, nil
}

// tracedRun alternates an untraced pass with a traced pass over the
// workload's sessions and reports the per-layer metrics. For
// fleet, a fleet.Run pass supplies the pool and runtime figures and the
// sample is fleet-shaped bulk and video sessions. With cpuprofile set,
// it makes one iteration and profiles only its traced pass.
func (b *bench) tracedRun(cpuprofile string) (map[string]metric, error) {
	ss := b.w.sessions(b.seed)
	type series struct {
		unit string
		vals []float64
	}
	timed := map[string]*series{}
	add := func(name, unit string, v float64) {
		if timed[name] == nil {
			timed[name] = &series{unit: unit}
		}
		timed[name].vals = append(timed[name].vals, v)
	}
	var first layerStats
	began := time.Now()
	for n := 0; n == 0 || (cpuprofile == "" && time.Since(began).Seconds() < b.seconds); n++ {
		host, sessions := b.entryPass(ss)
		untraced := host
		if b.w.fleet {
			untraced = b.runSessions(ss, func(_ int, s session) (string, error) { return runEntry(s) })
		}

		lss := make([]layerStats, len(ss))
		stop, err := startProfile(cpuprofile)
		if err != nil {
			return nil, err
		}
		tp := b.runSessions(ss, func(i int, s session) (string, error) {
			out, _, err := runAssembled(s, &lss[i], false)
			return out, err
		})
		if err := stop(); err != nil {
			return nil, err
		}
		b.chk.same(untraced, tp)

		var ls layerStats
		for i := range lss {
			ls.add(&lss[i])
		}
		if n == 0 {
			first = ls
		}
		span := float64(ls.setupNs + ls.loopNs)
		add("sim.ns_per_event", "ns", ratio(float64(ls.loopNs), float64(ls.events)))
		add("datapath.self_frac", "frac", float64(ls.loopNs-ls.ccNs-ls.steerNs)/span)
		add("cc.ns_per_ack", "ns", ratio(float64(ls.ccAckNs), float64(ls.acks)))
		add("cc.self_frac", "frac", float64(ls.ccNs)/span)
		add("steering.ns_per_pick", "ns", ratio(float64(ls.steerNs), float64(ls.picks)))
		add("steering.self_frac", "frac", float64(ls.steerNs)/span)
		add("trace.gen_s", "s", float64(ls.traceNs)/1e9)
		add("pool.cpu_util", "frac", host.cost.cpuS/(host.cost.wallS*float64(b.workers)))
		add("pool.tail_s", "s", host.tailS)
		add("fleet.ues_per_cpu_s", "1/s", float64(sessions)/host.cost.cpuS)
		add("runtime.gc_cpu_frac", "frac", host.cost.gcCPUFrac)
		add("runtime.alloc_mb", "MB", host.cost.allocMB)
		add("runtime.gc_cycles", "count", host.cost.gcCycles)
		add("tracing.overhead_frac", "frac", tp.cost.wallS/untraced.cost.wallS-1)
	}

	ls := first
	ms := map[string]metric{
		"sim.events":                 {float64(ls.events), "count"},
		"sim.pending_peak":           {float64(ls.pendingPeak), "count"},
		"transport.acks":             {float64(ls.acks), "count"},
		"transport.inflight_kb_mean": {ratio(float64(ls.inflightSum), float64(ls.acks)) / 1e3, "KB"},
		"transport.inflight_kb_peak": {float64(ls.inflightMax) / 1e3, "KB"},
		"transport.goodput_frac":     {ratio(float64(ls.bytesRecv), float64(ls.bytesSent)), "frac"},
		"transport.rtos":             {float64(ls.rtos), "count"},
		"cc.calls":                   {float64(ls.ccCalls), "count"},
		"steering.picks":             {float64(ls.picks), "count"},
		"steering.copies_per_pick":   {ratio(float64(ls.copies), float64(ls.picks)), "count"},
		"netem.pkts":                 {float64(ls.netemPkts), "count"},
		"netem.drop_frac":            {ratio(float64(ls.netemDrops), float64(ls.netemPkts)), "frac"},
	}
	for name, sr := range timed {
		ms[name] = metric{median(sr.vals), sr.unit}
	}
	return ms, nil
}

// startProfile starts a CPU profile into path (a no-op for "") and
// returns the function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// references maps workload → seed → output digests.
type references map[string]map[string][]string

func readReferences(path string) (references, error) {
	refs := references{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return refs, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return refs, nil
}

// loadReference returns the digests recorded for workload and seed, or
// nil when that seed was never recorded.
func loadReference(path, workload string, seed int64) ([]string, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	refs, err := readReferences(path)
	if err != nil {
		return nil, err
	}
	return refs[workload][strconv.FormatInt(seed, 10)], nil
}

// record computes the reference digests for seeds lo..hi through the
// public entry points and merges them into path.
func (b *bench) record(path, seeds string) error {
	loS, hiS, _ := strings.Cut(seeds, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("-record wants LO-HI, got %q", seeds)
	}
	refs, err := readReferences(path)
	if err != nil {
		return err
	}
	if refs[b.w.name] == nil {
		refs[b.w.name] = map[string][]string{}
	}
	for seed := lo; seed <= hi; seed++ {
		b.seed = seed
		var p pass
		if b.w.fleet {
			p = b.fleetPass()
		} else {
			p = b.runSessions(b.w.sessions(seed), func(_ int, s session) (string, error) { return runEntry(s) })
		}
		if err := errors.Join(p.errs...); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		ds := make([]string, len(p.rows))
		for i, r := range p.rows {
			ds[i] = digest(r)
		}
		refs[b.w.name][strconv.FormatInt(seed, 10)] = ds
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d (%.1fs)\n", b.w.name, seed, p.cost.wallS)
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
