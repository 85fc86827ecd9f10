package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is a snapshot of the process's OS and Go runtime
// counters; the difference of two samples is the cost of what ran
// between them.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration // user+sys, from getrusage
	gcCPU   float64       // seconds
	busyCPU float64       // seconds, the runtime's estimate of non-idle CPU
	allocB  uint64
	gcCount uint64
}

var runtimeKeys = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	return hostSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   ms[0].Value.Float64(),
		busyCPU: ms[1].Value.Float64() - ms[2].Value.Float64(),
		allocB:  ms[3].Value.Uint64(),
		gcCount: ms[4].Value.Uint64(),
	}
}

// hostCost is what one measured stretch cost the host.
type hostCost struct {
	wallS, cpuS float64
	gcCPUFrac   float64
	allocMB     float64
	gcCycles    float64
}

func (a hostSample) to(b hostSample) hostCost {
	c := hostCost{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     (b.cpu - a.cpu).Seconds(),
		allocMB:  float64(b.allocB-a.allocB) / (1 << 20),
		gcCycles: float64(b.gcCount - a.gcCount),
	}
	// The runtime's CPU classes are estimates comparable only with each
	// other, so the GC share is taken against their own busy total.
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / busy
	}
	return c
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
