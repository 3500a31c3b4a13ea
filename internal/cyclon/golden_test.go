package cyclon

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"p2psize/internal/graph"
	"p2psize/internal/parallel"
)

// viewStateHash folds a full view state and its message total into one
// FNV-64a word: for every node ID, the ID and view length, then each
// entry's (node, age) pair, all as little-endian binary words.
func viewStateHash(views [][]entry, msgs uint64) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for id, view := range views {
		binary.LittleEndian.PutUint32(w[:4], uint32(id))
		binary.LittleEndian.PutUint32(w[4:], uint32(len(view)))
		h.Write(w[:])
		for _, e := range view {
			binary.LittleEndian.PutUint32(w[:4], uint32(e.node))
			binary.LittleEndian.PutUint32(w[4:], uint32(e.age))
			h.Write(w[:])
		}
	}
	binary.LittleEndian.PutUint64(w[:], msgs)
	h.Write(w[:])
	return h.Sum64()
}

// TestViewStateGolden pins the complete view state — every member's
// (node, age) entries plus the metered message total — after 15 rounds
// under 30% silent departures, in four configurations that
// cover both shuffle modes, the auto and explicit shard counts, and
// view sizes whose shuffles draw past the default 8/4 geometry. Any
// change to draw order, merge order or view storage that is not
// byte-identical fails here.
func TestViewStateGolden(t *testing.T) {
	cases := []struct {
		name string
		n    int
		cfg  Config
		want uint64
	}{
		{"8-4-global", 30000, Config{ViewSize: 8, ShuffleLen: 4, Workers: 2}, 0x218e717e6b1db7fd},
		{"8-4-local", 30000, Config{ViewSize: 8, ShuffleLen: 4, Workers: 2, Shuffle: parallel.ShuffleLocal}, 0xabd7e42b99d2d1d1},
		{"20-8-shards4", 10000, Config{ViewSize: 20, ShuffleLen: 8, Shards: 4, Workers: 2}, 0xf13c8a549bfb7776},
		{"40-40-shards3", 400, Config{ViewSize: 40, ShuffleLen: 40, Shards: 3, Workers: 2}, 0x1810b3bdfa4e3e85},
	}
	for _, c := range cases {
		views, msgs := roundState(t, c.n, c.cfg, 41, 15)
		if got := viewStateHash(views, msgs); got != c.want {
			t.Errorf("%s: view-state hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestJoinViewStateGolden pins the views Join seeds: fresh peers join
// between rounds of a churned overlay, so the introducer sample, the
// shuffles that spread the newcomers and their merges all feed one hash.
func TestJoinViewStateGolden(t *testing.T) {
	const n, joinsPerRound, rounds = 5000, 100, 10
	p := churned(n, Default(), 51)
	next := graph.NodeID(n)
	for r := 0; r < rounds; r++ {
		for j := 0; j < joinsPerRound; j++ {
			p.Join(next)
			next++
		}
		p.RunRound()
	}
	if got, want := viewStateHash(viewState(p), p.counter.Total()), uint64(0x58bb0ea72af83a5a); got != want {
		t.Errorf("view-state hash %#016x, want %#016x", got, want)
	}
}

// warmRoundAllocs returns the mean allocation count of a warm round at
// n nodes (after 30% departures) on a fixed shard count.
func warmRoundAllocs(n, shards int) float64 {
	cfg := Default()
	cfg.Shards = shards
	cfg.Workers = 1
	p := churned(n, cfg, 61)
	// Two warmup rounds bring every engine buffer to its high-water size.
	p.RunRound()
	p.RunRound()
	return testing.AllocsPerRun(3, p.RunRound)
}

// TestWarmRoundAllocs pins the allocation-free exchange path: a warm
// round allocates O(shards) — the worker pool's bookkeeping — never
// O(n), and a single-shard round almost nothing.
func TestWarmRoundAllocs(t *testing.T) {
	small, large := warmRoundAllocs(20000, 4), warmRoundAllocs(100000, 4)
	if large > small || large > 64 {
		t.Fatalf("4-shard warm round allocates %.0f times at 20k nodes and %.0f at 100k; want <= 64 and flat in n", small, large)
	}
	if one := warmRoundAllocs(20000, 1); one > 8 {
		t.Fatalf("1-shard warm round allocates %.0f times; want <= 8", one)
	}
}
