package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"hvc/internal/app/video"
	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/metrics"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// A session is one simulated run the benchmark drives: a reliable bulk
// flow (core.RunBulk) or an unreliable SVC stream (core.RunVideo).
type session struct {
	video  bool
	cc     string // bulk only
	policy string
	// trace names the eMBB trace. For bulk, "" means the paper's fixed
	// 50 ms / 60 Mbps channel; otherwise the trace is realized for
	// dur+1s and passed as BulkConfig.EMBB, as fleet bulk UEs do.
	trace string
	dur   time.Duration
	seed  int64
}

func (s session) String() string {
	if s.video {
		return fmt.Sprintf("video trace=%s policy=%s dur=%s seed=%d", s.trace, s.policy, s.dur, s.seed)
	}
	return fmt.Sprintf("bulk cc=%s policy=%s trace=%s dur=%s seed=%d", s.cc, s.policy, s.trace, s.dur, s.seed)
}

// runEntry runs s through the public entry point and renders its
// figure-table row.
func runEntry(s session) (string, error) {
	if s.video {
		r, err := core.RunVideo(core.VideoConfig{Seed: s.seed, Duration: s.dur, Trace: s.trace, Policy: s.policy})
		if err != nil {
			return "", err
		}
		return videoRow(s, r), nil
	}
	cfg := core.BulkConfig{Seed: s.seed, Duration: s.dur, CC: s.cc, Policy: s.policy}
	if s.trace != "" {
		tr, err := core.NewTrace(s.trace, s.seed, s.dur+time.Second)
		if err != nil {
			return "", err
		}
		cfg.EMBB = tr
	}
	r, err := core.RunBulk(cfg)
	if err != nil {
		return "", err
	}
	return bulkRow(s, r), nil
}

// runAssembled builds s's stack from the public constructors, exactly
// as the entry point does, and runs it. With ls non-nil every
// congestion controller and steering policy is wrapped in a timer and
// the session's layer costs are added to ls. With setupOnly the stack
// is built and dropped before its loop runs. The returned duration is
// the host time spent before loop.RunUntil.
func runAssembled(s session, ls *layerStats, setupOnly bool) (string, time.Duration, error) {
	if s.video {
		return assembleVideo(s, ls, setupOnly)
	}
	return assembleBulk(s, ls, setupOnly)
}

// seams wraps a stack's cc and steering seams in timers when ls is
// non-nil and passes them through untouched when it is nil.
type seams struct {
	loop *sim.Loop
	ls   *layerStats
}

func (t seams) policy(p steering.Policy) steering.Policy {
	if t.ls == nil {
		return p
	}
	return wrapPolicy(p, t.loop, t.ls)
}

func (t seams) cc(alg cc.Algorithm) cc.Algorithm {
	if t.ls == nil {
		return alg
	}
	return wrapCC(alg, t.loop, t.ls)
}

// mustPolicy is for the accept-time factories, which cannot return an
// error; the name is validated before the loop runs.
func mustPolicy(name string, g *channel.Group, side channel.Side) steering.Policy {
	p, err := core.NewPolicy(name, g, side)
	if err != nil {
		panic(err)
	}
	return p
}

// sessionStats folds a finished stack's counters into ls.
func sessionStats(ls *layerStats, loop *sim.Loop, g *channel.Group, snd, rcv *transport.Conn) {
	ls.events += loop.Events()
	for _, ch := range g.All() {
		for _, side := range []channel.Side{channel.A, channel.B} {
			st := ch.Stats(side)
			ls.netemPkts += int64(st.Sent)
			ls.netemDrops += int64(st.DroppedQueue + st.DroppedRandom)
		}
	}
	ls.bytesSent += snd.Stats().BytesSent
	ls.rtos += int64(snd.Stats().RTOs)
	if rcv != nil {
		ls.bytesRecv += rcv.Stats().BytesReceived
	}
}

// assembleBulk mirrors core.RunBulk with no fault and no tracer.
func assembleBulk(s session, ls *layerStats, setupOnly bool) (string, time.Duration, error) {
	start := time.Now()
	embb := trace.Constant("embb-fixed", 50*time.Millisecond, 60e6)
	if s.trace != "" {
		tr, err := core.NewTrace(s.trace, s.seed, s.dur+time.Second)
		if err != nil {
			return "", 0, err
		}
		embb = tr
	}
	traceNs := time.Since(start)
	alg, err := core.NewCC(s.cc)
	if err != nil {
		return "", 0, err
	}

	loop := sim.NewLoop(s.seed)
	t := seams{loop: loop, ls: ls}
	g := core.Cellular(loop, embb)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	var srv *transport.Conn
	server.Listen(func() transport.Config {
		ccSrv, _ := core.NewCC("cubic") // the server sends only acks
		return transport.Config{CC: t.cc(ccSrv), Steer: t.policy(mustPolicy(s.policy, g, channel.B))}
	}, func(c *transport.Conn) { srv = c })

	pol, err := core.NewPolicy(s.policy, g, channel.A)
	if err != nil {
		return "", 0, err
	}
	counter := steering.NewCounter(pol)
	conn := client.Dial(transport.Config{CC: t.cc(alg), Steer: t.policy(counter)})

	res := core.BulkResult{CC: s.cc, Policy: s.policy}
	conn.OnRTTSample(func(now, rtt time.Duration, ch string) {
		res.RTT.Add(now, float64(rtt)/float64(time.Millisecond))
		res.RTTChannels = append(res.RTTChannels, ch)
	})
	size := int(1e9 / 8 * s.dur.Seconds())
	conn.SendMessage(conn.NewStream(), 0, size, nil)
	setup := time.Since(start)
	if setupOnly {
		return "", setup, nil
	}

	loopStart := time.Now()
	loop.RunUntil(s.dur)
	loopNs := time.Since(loopStart)

	if srv != nil {
		res.Mbps = metrics.Mbps(float64(srv.Stats().BytesReceived) * 8 / s.dur.Seconds())
	}
	res.Retransmits = conn.Stats().Retransmits
	res.RTOs = conn.Stats().RTOs
	res.ChannelShare = counter.Counts()
	if ls != nil {
		ls.setupNs += int64(setup)
		ls.traceNs += int64(traceNs)
		ls.loopNs += int64(loopNs)
		sessionStats(ls, loop, g, conn, srv)
	}
	return bulkRow(s, res), setup, nil
}

// assembleVideo mirrors core.RunVideo with no fault and no tracer.
func assembleVideo(s session, ls *layerStats, setupOnly bool) (string, time.Duration, error) {
	start := time.Now()
	tr, err := core.NewTrace(s.trace, s.seed, s.dur+30*time.Second)
	if err != nil {
		return "", 0, err
	}
	traceNs := time.Since(start)

	loop := sim.NewLoop(s.seed)
	t := seams{loop: loop, ls: ls}
	g := core.Cellular(loop, tr)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	vcfg := video.Config{Duration: s.dur}
	recv := video.NewReceiver(loop, vcfg)
	var rc *transport.Conn
	server.Listen(func() transport.Config {
		return transport.Config{
			Steer:      t.policy(mustPolicy(s.policy, g, channel.B)),
			Unreliable: true,
			MsgTimeout: 30 * time.Second,
		}
	}, func(c *transport.Conn) { rc = c; recv.Attach(c) })

	pol, err := core.NewPolicy(s.policy, g, channel.A)
	if err != nil {
		return "", 0, err
	}
	conn := client.Dial(transport.Config{Steer: t.policy(pol), Unreliable: true, MsgTimeout: 30 * time.Second})
	snd := video.NewSender(loop, conn, vcfg)
	snd.Start()
	setup := time.Since(start)
	if setupOnly {
		return "", setup, nil
	}

	loopStart := time.Now()
	loop.RunUntil(s.dur + 20*time.Second)
	loopNs := time.Since(loopStart)

	res := core.VideoResult{
		Trace: s.trace, Policy: s.policy,
		Latency: recv.Latency, SSIM: recv.SSIM,
		Sent: snd.FrameCount(), Decoded: recv.Decoded, Frozen: recv.Frozen(snd.FrameCount()),
	}
	if ls != nil {
		ls.setupNs += int64(setup)
		ls.traceNs += int64(traceNs)
		ls.loopNs += int64(loopNs)
		sessionStats(ls, loop, g, conn, rc)
	}
	return videoRow(s, res), setup, nil
}

// bulkRow renders one figure-table row. Floats print with every digit
// and the whole RTT series is folded into a hash, so any change to the
// simulation's output changes the row.
func bulkRow(s session, r core.BulkResult) string {
	h := sha256.New()
	var b [8]byte
	for i, p := range r.RTT.Points() {
		binary.LittleEndian.PutUint64(b[:], uint64(p.At))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Value))
		h.Write(b[:])
		h.Write([]byte(r.RTTChannels[i]))
	}
	return fmt.Sprintf("%s mbps=%v retx=%d rtos=%d rtt_n=%d rtt=%x share=%s",
		s, r.Mbps, r.Retransmits, r.RTOs, r.RTT.N(), h.Sum(nil)[:8], core.SortedCounts(r.ChannelShare))
}

func videoRow(s session, r core.VideoResult) string {
	return fmt.Sprintf("%s sent=%d decoded=%d frozen=%d latency=%s ssim=%s",
		s, r.Sent, r.Decoded, r.Frozen, distDigest(&r.Latency), distDigest(&r.SSIM))
}

func distDigest(d *metrics.Distribution) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range d.Values() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("n%d/mean%v/p99%v/%x", d.N(), d.Mean(), d.Percentile(99), h.Sum(nil)[:8])
}

// digest is the reference form of one output: the first 16 hex digits
// of its SHA-256.
func digest(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:8])
}
