package main

import (
	"fmt"
	"math"
	"time"

	"p2psize"
	"p2psize/internal/overlay"
	"p2psize/internal/trace"
	"p2psize/internal/xrand"
)

// churnRoster is churn-monitor's estimator roster: three observe-only
// families at cadence 10 and aggregation at cadence 100.
var churnRoster = []struct {
	name    string
	cadence float64
}{
	{"samplecollide", 10},
	{"dhtext", 10},
	{"capturerecapture", 10},
	{"aggregation", 100},
}

// churnShape is the Weibull session shape: heavy-tailed sessions as
// measured on IPFS.
const churnShape = 0.5

// churnGrid is the monitor's union time grid (the smallest cadence).
const churnGrid = 10

// traceConfig is the generator configuration p2psize.GenerateTrace
// builds for churnTraceOptions, reproduced for the internal twin.
func traceConfig(sc scale) trace.Config {
	return trace.Config{
		Initial: sc.nodes,
		Horizon: sc.horizon,
		Session: trace.SessionDist{Kind: trace.Weibull, Mean: sc.meanSession, Shape: churnShape},
	}
}

func churnTraceOptions(sc scale, seed uint64) p2psize.TraceOptions {
	return p2psize.TraceOptions{
		Nodes: sc.nodes, Horizon: sc.horizon, Sessions: p2psize.WeibullSessions,
		MeanSession: sc.meanSession, Shape: churnShape, Seed: seed,
	}
}

// opClock wraps a roster estimator to mark op boundaries: each call
// ends one served sample, and the op's latency is the time since the
// instance's previous sample ended — the replay advance included. It
// forwards MutatesOverlay so replay grouping sees the wrapped
// estimator exactly as it would the bare one.
type opClock struct {
	inner  p2psize.Estimator
	module string
	tr     *tracer
	parent int
	op     int

	last time.Time
	lat  []float64 // ms per served sample
	errs []float64 // raw |estimate/true − 1|
}

func (w *opClock) Name() string { return w.inner.Name() }

func (w *opClock) MutatesOverlay() bool {
	if m, ok := w.inner.(interface{ MutatesOverlay() bool }); ok {
		return m.MutatesOverlay()
	}
	return true
}

func (w *opClock) Estimate(n *p2psize.Network) (float64, error) {
	before := n.Messages()
	sp := w.tr.begin(w.module, w.parent, w.op)
	start := time.Now()
	v, err := w.inner.Estimate(n)
	end := time.Now()
	w.tr.end(sp, n.Messages()-before)
	// The first sample's interval would include waiting for a pool
	// worker, so it counts its own estimate time only.
	from := w.last
	if from.IsZero() {
		from = start
	}
	w.lat = append(w.lat, float64(end.Sub(from))/1e6)
	w.last = end
	if err == nil {
		w.errs = append(w.errs, relErr(v, float64(n.Size())))
	}
	return v, err
}

// churnSession is churn-monitor.
type churnSession struct {
	seed   uint64
	sc     scale
	net    *p2psize.Network
	tr     *p2psize.Trace
	buildS float64
	genS   float64

	ests   []estimateRecord // raw estimate errors, traced phase
	runs   int              // traced monitoring runs
	groups int
}

func setupChurn(e *env) (session, error) {
	net, d, err := buildNetwork(e.sc.nodes, e.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr, err := p2psize.GenerateTrace(churnTraceOptions(e.sc, e.seed))
	if err != nil {
		return nil, err
	}
	s := &churnSession{seed: e.seed, sc: e.sc, net: net, tr: tr, buildS: d.Seconds(), genS: time.Since(t0).Seconds()}
	// Build the roster once so set-up pays for it; every batch builds
	// its own identical, fresh instances.
	if _, _, err := s.roster(e, 0, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// roster builds fresh wrapped estimators and their cadences.
func (s *churnSession) roster(e *env, parent, b int) ([]*opClock, []float64, error) {
	var clocks []*opClock
	var cadences []float64
	for k, r := range churnRoster {
		cfg := p2psize.EstimatorConfig{Seed: s.seed*31 + uint64(k), Workers: churnWorkers}
		est, err := p2psize.NewEstimatorByName(r.name, cfg, s.net)
		if err != nil {
			return nil, nil, err
		}
		clocks = append(clocks, &opClock{inner: est, module: r.name, tr: e.tr, parent: parent, op: b})
		cadences = append(cadences, r.cadence)
	}
	return clocks, cadences, nil
}

// churnWorkers is both the monitor pool's width and aggregation's own
// round workers. On a two-core pool the four instances' uneven costs
// (aggregation's ten epochs outweigh the rest) made the run's length
// swing by a third between repeats with the same inputs; one worker runs
// them back to back and repeats within about ±6%.
const churnWorkers = 1

func churnMonitorOptions(cadences []float64) p2psize.MonitorOptions {
	return p2psize.MonitorOptions{
		Cadence:  churnGrid,
		Cadences: cadences,
		Policy:   p2psize.WindowSmoothing,
		Workers:  churnWorkers,
	}
}

func (s *churnSession) batch(e *env, b int) (batchOut, error) {
	run := e.tr.begin("monitor.run", 0, b)
	clocks, cadences, err := s.roster(e, run, b)
	if err != nil {
		return batchOut{}, err
	}
	ests := make([]p2psize.Estimator, len(clocks))
	for i, c := range clocks {
		ests[i] = c
	}
	before := s.net.Messages()
	t0 := time.Now()
	res, err := p2psize.RunMonitor(s.net, s.tr, ests, churnMonitorOptions(cadences))
	wall := time.Since(t0)
	e.tr.end(run, s.net.Messages()-before)
	if err != nil {
		return batchOut{}, err
	}
	out := batchOut{wall: wall, msgs: s.net.Messages() - before, fp: monitorFingerprint(res)}
	truths := res.TrueSizes()
	for k, c := range clocks {
		out.opsMs = append(out.opsMs, c.lat...)
		out.failed += res.Tracking(k).Failures
		raw, served := res.RawEstimates(k), res.Estimates(k)
		for i := range raw {
			if !math.IsNaN(raw[i]) {
				out.errs = append(out.errs, relErr(served[i], truths[i]))
			}
		}
		if e.tr != nil {
			for _, x := range c.errs {
				s.ests = append(s.ests, estimateRecord{c.module, x})
			}
		}
	}
	if e.tr != nil {
		s.runs++
		s.groups = res.Groups()
	}
	return out, nil
}

// monitorFingerprint hashes every series of a monitoring result.
func monitorFingerprint(res *p2psize.MonitorResult) uint64 {
	fp := newFingerprint()
	for _, x := range res.TrueSizes() {
		fp.float(x)
	}
	for k := range res.Names() {
		for _, x := range res.RawEstimates(k) {
			fp.float(x)
		}
		for _, x := range res.Estimates(k) {
			fp.float(x)
		}
		t := res.Tracking(k)
		fp.float(t.MsgsPerTimeUnit)
		fp.word(uint64(t.Failures))
	}
	fp.word(uint64(res.Groups()))
	return fp.sum()
}

func (s *churnSession) layer(e *env, spans []span) (map[string]float64, error) {
	var modules []string
	for _, r := range churnRoster[:3] {
		modules = append(modules, r.name)
	}
	m := estimatorLayer(spans, s.ests, modules)
	runs := float64(s.runs)
	var estimate time.Duration
	for _, r := range churnRoster {
		for _, sp := range named(spans, r.name) {
			estimate += sp.dur()
		}
	}
	m["monitor.estimate_s"] = estimate.Seconds() / runs
	m["monitor.self_s"] = selfTimes(spans)["monitor.run"].Seconds() / runs
	m["monitor.groups"] = float64(s.groups)
	m["trace.generate_s"] = s.genS
	m["graph.build_s"] = s.buildS

	twin, err := twinOverlay(s.net, s.sc.nodes, s.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range overlayProbes(twin, s.seed) {
		m[k] = v
	}
	replay, err := replayProbe(twin, s.tr, s.sc, s.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range replay {
		m[k] = v
	}
	return m, nil
}

// replayProbe replays the churn trace pub with trace.Player on a COW
// clone of base, one AdvanceTo per monitor grid tick, exactly as each
// monitoring instance does.
func replayProbe(base *overlay.Network, pub *p2psize.Trace, sc scale, seed uint64) (map[string]float64, error) {
	tr, err := trace.Generate(traceConfig(sc), xrand.New(seed))
	if err != nil {
		return nil, err
	}
	if tr.Joins() != pub.Joins() || tr.Leaves() != pub.Leaves() {
		return nil, fmt.Errorf("twin trace differs from the public one (%d/%d vs %d/%d events)",
			tr.Joins(), tr.Leaves(), pub.Joins(), pub.Leaves())
	}
	var cloneUs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		base.Graph().CloneCOW()
		cloneUs = append(cloneUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	clone := base.CloneCOW()
	player, err := trace.NewPlayer(tr, clone)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(0) // the monitor's default ReplaySeed
	var tickMs []float64
	var busy time.Duration
	events := 0
	for i := 1; float64(i*churnGrid) <= sc.horizon; i++ {
		t0 := time.Now()
		j, l := player.AdvanceTo(clone, float64(i*churnGrid), rng)
		d := time.Since(t0)
		busy += d
		tickMs = append(tickMs, float64(d)/1e6)
		events += j + l
	}
	g := clone.Graph()
	return map[string]float64{
		"trace.advance_ms_p50":  median(tickMs),
		"trace.events_per_s":    float64(events) / busy.Seconds(),
		"graph.clone_cow_us":    median(cloneUs),
		"graph.owned_page_frac": 1 - float64(g.SharedPages())/float64(g.TotalPages()),
	}, nil
}

func (s *churnSession) close() {}
