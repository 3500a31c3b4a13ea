package main

import (
	"fmt"
	"math"
	"time"

	"p2psize/internal/cluster"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/registry"
	"p2psize/internal/transport"
	"p2psize/internal/xrand"
)

// livePeriod is how many distinct coordinator seeds live-cluster cycles
// through; runs a period apart must reproduce each other bit for bit.
const livePeriod = 8

// liveRoster is the cross-validated families of every coordinator run.
var liveRoster = []string{"samplecollide", "hopssampling", "aggregation"}

// liveSamples is the estimations per family per run.
const liveSamples = 3

// pingRounds is how many pings the RPC probe sends each daemon.
const pingRounds = 20

// planDegree is the plan topology's degree. The plan is regular, so the
// walk lengths, and with them each op's work, do not swing with a seed's
// degree draw on only 32 nodes.
const planDegree = 6

// liveSession is live-cluster: in-process daemons on 127.0.0.1 UDP, a
// coordinator run per op, and the benchmark's own client for RPC probes.
type liveSession struct {
	seed   uint64
	plan   *graph.Graph
	buildS float64
	bootS  float64
	nodes  []*cluster.Node
	addrs  []string
	client *transport.UDP
	roster []registry.Descriptor

	// transport accounting of the traced batches
	stats transport.Stats
	wall  time.Duration
	runs  int
	// metered protocol messages of every batch, against which the
	// daemons' received counts give the delivery ratio
	metered uint64
}

func setupLive(e *env) (session, error) {
	s := &liveSession{seed: e.seed}
	t0 := time.Now()
	s.plan = graph.Homogeneous(e.sc.daemons, min(planDegree, e.sc.daemons-1), xrand.New(e.seed))
	s.buildS = time.Since(t0).Seconds()
	for _, name := range liveRoster {
		d, ok := registry.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown family %q", name)
		}
		s.roster = append(s.roster, d)
	}
	t0 = time.Now()
	for i := 0; i < e.sc.daemons; i++ {
		nd, err := cluster.NewNode("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
		s.addrs = append(s.addrs, nd.Addr())
	}
	s.bootS = time.Since(t0).Seconds()
	var err error
	s.client, err = transport.NewUDP(transport.UDPConfig{Addr: "127.0.0.1:0", Self: graph.None})
	if err != nil {
		s.close()
		return nil, err
	}
	for i, a := range s.addrs {
		if err := s.client.SetPeer(graph.NodeID(i), a); err != nil {
			s.close()
			return nil, err
		}
	}
	// One ping each: every daemon answers before the timed phase starts.
	if _, err := s.pings(1); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// pings sends rounds pings to every daemon and returns the round-trip
// times in microseconds.
func (s *liveSession) pings(rounds int) ([]float64, error) {
	var us []float64
	for r := 0; r < rounds; r++ {
		for i := range s.nodes {
			t0 := time.Now()
			resp, err := s.client.Request(graph.NodeID(i), "ping", nil)
			if err != nil {
				return nil, fmt.Errorf("ping daemon %d: %w", i, err)
			}
			if string(resp) != "pong" {
				return nil, fmt.Errorf("ping daemon %d: answer %q", i, resp)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return us, nil
}

func (s *liveSession) receivedTotal() uint64 {
	var n uint64
	for _, nd := range s.nodes {
		n += nd.Received()
	}
	return n
}

func (s *liveSession) batch(e *env, b int) (batchOut, error) {
	op := e.tr.begin("cluster.run", 0, b)
	t0 := time.Now()
	rep, err := cluster.Run(cluster.Config{
		Plan:       s.plan,
		MaxDeg:     maxDegree,
		Addrs:      s.addrs,
		Estimators: s.roster,
		Opts:       registry.Options{Workers: 1},
		Seed:       opSeed(s.seed, b%livePeriod, 0),
		Samples:    liveSamples,
	})
	wall := time.Since(t0)
	if err != nil {
		e.tr.end(op, 0)
		return batchOut{}, err
	}
	out := batchOut{wall: wall, opsMs: []float64{float64(wall) / 1e6}}
	fp := newFingerprint()
	truth := float64(rep.Nodes)
	for _, f := range rep.Families {
		out.msgs += f.Messages
		fp.word(f.Messages)
		for i := range f.Live {
			fp.float(f.Live[i])
			fp.float(f.Sim[i])
			if !math.IsNaN(f.Live[i]) {
				out.errs = append(out.errs, relErr(f.Live[i], truth))
			}
		}
		// Benign runs must match the simulated oracle exactly.
		if f.MaxDivergence != 0 {
			out.invalid = 1
		}
	}
	if !rep.Within || len(rep.Departed) != 0 {
		out.invalid = 1
	}
	out.failed = out.invalid
	fp.word(uint64(rep.Nodes))
	out.fp = fp.sum()
	e.tr.end(op, out.msgs)
	s.metered += out.msgs
	if e.tr != nil {
		s.stats.Delivered += rep.Transport.Delivered
		s.stats.Requests += rep.Transport.Requests
		s.stats.Retransmits += rep.Transport.Retransmits
		s.stats.Errors += rep.Transport.Errors
		s.wall += wall
		s.runs++
	}
	return out, nil
}

func (s *liveSession) layer(e *env, spans []span) (map[string]float64, error) {
	rtt, err := s.pings(pingRounds)
	if err != nil {
		return nil, err
	}
	m, err := codecProbes()
	if err != nil {
		return nil, err
	}
	runs := float64(s.runs)
	// Frames the coordinator moved: one per one-way delivery plus both
	// halves of every completed request.
	m["transport.frames_per_s"] = float64(s.stats.Delivered+2*s.stats.Requests) / s.wall.Seconds()
	m["transport.retransmits"] = float64(s.stats.Retransmits) / runs
	m["transport.errors"] = float64(s.stats.Errors) / runs
	// The pings above gave the last op's frames time to land.
	m["transport.delivery_ratio"] = float64(s.receivedTotal()) / float64(s.metered)
	m["transport.rpc_us_p50"] = quantile(rtt, 0.5)
	m["transport.rpc_us_p90"] = quantile(rtt, 0.9)
	m["cluster.bootstrap_s"] = s.bootS
	m["graph.build_s"] = s.buildS
	for k, v := range overlayProbes(overlay.New(s.plan.Clone(), maxDegree, nil), s.seed) {
		m[k] = v
	}
	return m, nil
}

func (s *liveSession) close() {
	if s.client != nil {
		s.client.Close()
	}
	for _, nd := range s.nodes {
		nd.Close()
	}
}
