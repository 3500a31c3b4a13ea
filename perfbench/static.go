package main

import (
	"fmt"
	"time"

	"p2psize"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/xrand"
)

// staticPeriod is how many distinct ops static-estimate cycles through:
// op i seeds its estimators from i mod staticPeriod, so ops a period
// apart must reproduce each other bit for bit. A hundred distinct ops
// keep the walk families' cost variance out of msgs_per_op.
const staticPeriod = 100

// maxDegree is the overlays' degree cap, as in the paper's Figs 1–4.
const maxDegree = 10

// buildNetwork builds the workload's overlay through the public API and
// times it.
func buildNetwork(nodes int, seed uint64) (*p2psize.Network, time.Duration, error) {
	t0 := time.Now()
	net, err := p2psize.NewNetwork(p2psize.NetworkOptions{Nodes: nodes, MaxDegree: maxDegree, Seed: seed})
	return net, time.Since(t0), err
}

// twinOverlay rebuilds, from internal packages, the overlay
// p2psize.NewNetwork builds for these options (same graph generator,
// same rng stream), so module probes can run on the workload's own
// topology.
// The twin's size and edge count are checked against the public one.
func twinOverlay(net *p2psize.Network, nodes int, seed uint64) (*overlay.Network, error) {
	g := graph.Heterogeneous(nodes, maxDegree, xrand.New(seed))
	o := overlay.New(g, maxDegree, nil)
	if o.Size() != net.Size() || graph.AvgDegree(g) != net.AvgDegree() {
		return nil, fmt.Errorf("twin overlay differs from the public network (%d/%g vs %d/%g)",
			o.Size(), graph.AvgDegree(g), net.Size(), net.AvgDegree())
	}
	return o, nil
}

// staticSession is static-estimate: a read-only overlay and one estimate
// from each one-shot family per op.
type staticSession struct {
	seed   uint64
	sc     scale
	net    *p2psize.Network
	buildS float64
	ests   []estimateRecord // per estimate, for the per-module metrics
}

// estimateRecord is one served estimate and its module.
type estimateRecord struct {
	module string
	err    float64 // |estimate/true − 1|
}

func setupStatic(e *env) (session, error) {
	net, d, err := buildNetwork(e.sc.nodes, e.seed)
	if err != nil {
		return nil, err
	}
	return &staticSession{seed: e.seed, sc: e.sc, net: net, buildS: d.Seconds()}, nil
}

// opSeed derives the estimator seed of an op slot and family.
func opSeed(seed uint64, slot, family int) uint64 {
	return seed*1_000_003 + uint64(slot)*64 + uint64(family) + 1
}

func (s *staticSession) batch(e *env, b int) (batchOut, error) {
	slot := b % staticPeriod
	truth := float64(s.net.Size())
	fp := newFingerprint()
	var out batchOut
	op := e.tr.begin("op", 0, b)
	t0 := time.Now()
	msgs0 := s.net.Messages()
	for k, name := range estimatorModules {
		est, err := p2psize.NewEstimatorByName(name, p2psize.EstimatorConfig{Seed: opSeed(s.seed, slot, k)}, s.net)
		if err != nil {
			return out, err
		}
		before := s.net.Messages()
		sp := e.tr.begin(name, op, b)
		v, err := est.Estimate(s.net)
		e.tr.end(sp, s.net.Messages()-before)
		if err != nil || !(v > 0) {
			out.failed = 1
			fp.word(0)
			continue
		}
		out.errs = append(out.errs, relErr(v, truth))
		if e.tr != nil {
			s.ests = append(s.ests, estimateRecord{name, relErr(v, truth)})
		}
		fp.float(v)
	}
	out.wall = time.Since(t0)
	out.msgs = s.net.Messages() - msgs0
	e.tr.end(op, out.msgs)
	out.opsMs = []float64{float64(out.wall) / 1e6}
	fp.word(out.msgs)
	fp.word(uint64(s.net.Size()))
	out.fp = fp.sum()
	return out, nil
}

func (s *staticSession) layer(e *env, spans []span) (map[string]float64, error) {
	m := estimatorLayer(spans, s.ests, estimatorModules)
	m["graph.build_s"] = s.buildS
	o, err := twinOverlay(s.net, s.sc.nodes, s.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range overlayProbes(o, s.seed) {
		m[k] = v
	}
	// churn-monitor's trace replayed on this overlay, so the replay and
	// COW-page metrics of every traced static-estimate run are measured
	// at the workload's scale.
	t0 := time.Now()
	tr, err := p2psize.GenerateTrace(churnTraceOptions(s.sc, s.seed))
	if err != nil {
		return nil, err
	}
	m["trace.generate_s"] = time.Since(t0).Seconds()
	replay, err := replayProbe(o, tr, s.sc, s.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range replay {
		m[k] = v
	}
	return m, nil
}

func (s *staticSession) close() {}

// estimatorLayer derives the per-estimator metrics from the estimate
// spans and records of the given modules.
func estimatorLayer(spans []span, ests []estimateRecord, modules []string) map[string]float64 {
	m := make(map[string]float64)
	for _, mod := range modules {
		sp := named(spans, mod)
		if len(sp) == 0 {
			continue
		}
		var ns int64
		var msgs uint64
		for _, x := range sp {
			ns += x.End - x.Start
			msgs += x.Msgs
		}
		var errs []float64
		for _, r := range ests {
			if r.module == mod {
				errs = append(errs, r.err)
			}
		}
		m[mod+".estimate_ms_p50"] = median(durationsMs(sp))
		m[mod+".msgs_per_estimate"] = float64(msgs) / float64(len(sp))
		m[mod+".ns_per_msg"] = float64(ns) / float64(max(msgs, 1))
		m[mod+".error_pct"] = mean(errs) * 100
	}
	return m
}
