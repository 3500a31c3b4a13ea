package main

import (
	"fmt"
	"runtime"
	"time"

	"p2psize/internal/aggregation"
	"p2psize/internal/cyclon"
	"p2psize/internal/graph"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/pushsum"
	"p2psize/internal/xrand"
)

// gossipPeriod is one aggregation epoch (the paper's 50 rounds). Every
// period restarts the three protocols from fresh clones of the base
// overlay, so rounds a period apart reproduce each other bit for bit.
const gossipPeriod = 50

// speedupRounds is how many rounds each worker count runs for the
// parallel.speedup.* metrics.
const speedupRounds = 5

// gossipFamilies is one set of the three round-based protocols, each on
// its own COW clone of the base overlay.
type gossipFamilies struct {
	aggNet *overlay.Network
	agg    *aggregation.Protocol
	psNet  *overlay.Network
	ps     *pushsum.Protocol
	cy     *cyclon.Protocol
}

// newGossipFamilies starts the three protocols in local-shuffle sharded
// mode on fresh clones; workers changes wall time only, never output.
func newGossipFamilies(base *overlay.Network, seed uint64, workers int) (*gossipFamilies, error) {
	f := &gossipFamilies{aggNet: base.CloneCOW(), psNet: base.CloneCOW()}
	f.agg = aggregation.New(aggregation.Config{RoundsPerEpoch: gossipPeriod, Workers: workers, Shuffle: parallel.ShuffleLocal}, xrand.New(seed+1))
	if err := f.agg.StartEpoch(f.aggNet); err != nil {
		return nil, err
	}
	pcfg := pushsum.Default()
	pcfg.Workers, pcfg.Shuffle = workers, parallel.ShuffleLocal
	f.ps = pushsum.New(pcfg, xrand.New(seed+2))
	if err := f.ps.StartEpoch(f.psNet); err != nil {
		return nil, err
	}
	ccfg := cyclon.Default()
	ccfg.Workers, ccfg.Shuffle = workers, parallel.ShuffleLocal
	f.cy = cyclon.New(ccfg, xrand.New(seed+3), nil)
	f.cy.Bootstrap(base.Graph().CloneCOW())
	return f, nil
}

func (f *gossipFamilies) msgs() uint64 {
	return f.aggNet.Counter().Total() + f.psNet.Counter().Total() + f.cy.Counter().Total()
}

// round runs one round of each family under spans, returning the
// fingerprinted outputs and estimate errors.
func (f *gossipFamilies) round(e *env, b int, mem map[string][]memDelta) (fp uint64, errs []float64) {
	op := e.tr.begin("op", 0, b)
	step := func(name string, msgs func() uint64, run func()) {
		var m0 runtime.MemStats
		if mem != nil {
			runtime.ReadMemStats(&m0)
		}
		before := msgs()
		sp := e.tr.begin(name, op, b)
		run()
		e.tr.end(sp, msgs()-before)
		if mem != nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			mem[name] = append(mem[name], memDelta{m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs})
		}
	}
	step("aggregation", f.aggNet.Counter().Total, func() { f.agg.RunRound(f.aggNet) })
	step("pushsum", f.psNet.Counter().Total, func() { f.ps.RunRound(f.psNet) })
	step("cyclon", f.cy.Counter().Total, f.cy.RunRound)
	e.tr.end(op, 0)

	h := newFingerprint()
	truth := float64(f.aggNet.Size())
	for _, est := range []func() (float64, bool){
		func() (float64, bool) { return f.agg.Estimate(f.aggNet) },
		func() (float64, bool) { return f.ps.Estimate(f.psNet) },
	} {
		v, ok := est()
		h.float(v)
		if ok {
			errs = append(errs, relErr(v, truth))
		}
	}
	h.float(f.cy.StaleFraction())
	h.float(f.cy.AvgViewSize())
	h.word(f.msgs())
	h.word(uint64(f.aggNet.Size()))
	return h.sum(), errs
}

// memDelta is one round's heap allocation.
type memDelta struct{ bytes, allocs uint64 }

// gossipSession is gossip-rounds.
type gossipSession struct {
	seed   uint64
	base   *overlay.Network
	buildS float64
	fam    *gossipFamilies
	used   bool                  // fam has run rounds since it was built
	mem    map[string][]memDelta // traced phase only
}

func setupGossip(e *env) (session, error) {
	t0 := time.Now()
	g := graph.Heterogeneous(e.sc.nodes, maxDegree, xrand.New(e.seed))
	base := overlay.New(g, maxDegree, nil)
	s := &gossipSession{seed: e.seed, base: base, buildS: time.Since(t0).Seconds()}
	var err error
	s.fam, err = newGossipFamilies(base, e.seed, e.nproc)
	return s, err
}

func (s *gossipSession) batch(e *env, b int) (batchOut, error) {
	if b%gossipPeriod == 0 && s.used {
		fam, err := newGossipFamilies(s.base, s.seed, e.nproc)
		if err != nil {
			return batchOut{}, err
		}
		s.fam = fam
	}
	s.used = true
	// Only traced batches sample the heap: ReadMemStats stops the world,
	// so untraced batches must not pay for it.
	var mem map[string][]memDelta
	if e.tr != nil {
		if s.mem == nil {
			s.mem = make(map[string][]memDelta)
		}
		mem = s.mem
	}
	before := s.fam.msgs()
	t0 := time.Now()
	fp, errs := s.fam.round(e, b, mem)
	wall := time.Since(t0)
	return batchOut{
		wall:  wall,
		opsMs: []float64{float64(wall) / 1e6},
		msgs:  s.fam.msgs() - before,
		errs:  errs,
		fp:    fp,
	}, nil
}

func (s *gossipSession) layer(e *env, spans []span) (map[string]float64, error) {
	m := overlayProbes(s.base, s.seed)
	m["graph.build_s"] = s.buildS
	for _, name := range gossipModules {
		m[name+".round_ms_p50"] = median(durationsMs(named(spans, name)))
		var bytes, allocs uint64
		for _, d := range s.mem[name] {
			bytes += d.bytes
			allocs += d.allocs
		}
		n := float64(len(s.mem[name]))
		m[name+".alloc_bytes_per_round"] = float64(bytes) / n
		m[name+".allocs_per_round"] = float64(allocs) / n
	}
	speed, err := speedups(s.base, s.seed, e.nproc)
	if err != nil {
		return nil, err
	}
	for k, v := range speed {
		m[k] = v
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cy := cyclon.New(cyclon.Default(), xrand.New(s.seed+3), nil)
	cy.Bootstrap(s.base.Graph())
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m["cyclon.bytes_per_node"] = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(cy.Size())
	runtime.KeepAlive(cy)
	return m, nil
}

// speedups times speedupRounds rounds of each family at one worker and
// at nproc workers from identical fresh state (same auto shard count),
// checks both produce the same outputs, and returns the per-family
// ratio of median round times.
func speedups(base *overlay.Network, seed uint64, nproc int) (map[string]float64, error) {
	roundMs := make(map[int]map[string][]float64)
	var fps [2][]uint64
	for i, workers := range []int{1, nproc} {
		fam, err := newGossipFamilies(base, seed, workers)
		if err != nil {
			return nil, err
		}
		e := &env{seed: seed, nproc: workers, tr: newTracer("speedup")}
		for r := 0; r < speedupRounds; r++ {
			fp, _ := fam.round(e, r, nil)
			fps[i] = append(fps[i], fp)
		}
		spans := e.tr.snapshot()
		roundMs[workers] = make(map[string][]float64)
		for _, name := range gossipModules {
			roundMs[workers][name] = durationsMs(named(spans, name))
		}
	}
	for r := range fps[0] {
		if fps[0][r] != fps[1][r] {
			return nil, fmt.Errorf("round %d differs between 1 and %d workers", r, nproc)
		}
	}
	m := make(map[string]float64)
	for _, name := range gossipModules {
		m["parallel.speedup."+name] = median(roundMs[1][name]) / median(roundMs[nproc][name])
	}
	return m, nil
}

func (s *gossipSession) close() {}
