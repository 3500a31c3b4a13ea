package main

import (
	"fmt"
	"reflect"
	"time"

	"p2psize/internal/graph"
	"p2psize/internal/metrics"
	"p2psize/internal/overlay"
	"p2psize/internal/transport"
	"p2psize/internal/xrand"
)

// probeCalls is the call count of each overlay micro-probe.
const probeCalls = 1 << 20

// probeSink keeps probe results live so the compiler cannot drop the
// measured calls.
var probeSink uint64

// overlayProbes times the three primitives every walk and sweep is made
// of — a neighbor draw, a metered send and an rng draw — on the
// workload's own overlay. Sends go to a View so the overlay's own meter
// is untouched.
func overlayProbes(o *overlay.Network, seed uint64) map[string]float64 {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	g := o.Graph()
	n := g.NumAlive()
	ids := make([]graph.NodeID, 4096)
	for i := range ids {
		ids[i] = g.AliveAt(rng.Intn(n))
	}
	perCall := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / probeCalls }

	t0 := time.Now()
	var sink uint64
	for i := 0; i < probeCalls; i++ {
		v, _ := g.RandomNeighbor(ids[i&4095], rng)
		sink += uint64(v)
	}
	neighbor := perCall(t0)

	view := o.View()
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		view.Send(metrics.KindWalk)
	}
	send := perCall(t0)
	sink += view.Counter().Total()

	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		sink += uint64(rng.Intn(n))
	}
	intn := perCall(t0)
	probeSink += sink
	return map[string]float64{
		"graph.random_neighbor_ns": neighbor,
		"overlay.send_ns":          send,
		"xrand.intn_ns":            intn,
	}
}

// codecCalls is the encode/decode count per frame shape.
const codecCalls = 20000

// codecProbes times the wire codec on the two frame shapes the live
// cluster sends most — a one-way protocol message and a ping request —
// and checks each decodes back to what was encoded.
func codecProbes() (map[string]float64, error) {
	shapes := []*transport.Frame{
		{Type: transport.TypeOneway, Kind: metrics.KindWalk, Seq: 123456, From: 7, To: 31, Count: 1},
		{Type: transport.TypeRequest, Op: "ping", Seq: 123457, From: graph.None, To: 12},
	}
	var encNs, decNs int64
	var bytes int
	for _, f := range shapes {
		t0 := time.Now()
		var buf []byte
		for i := 0; i < codecCalls; i++ {
			var err error
			if buf, err = transport.EncodeFrame(f); err != nil {
				return nil, err
			}
		}
		encNs += time.Since(t0).Nanoseconds()
		bytes += len(buf)
		t0 = time.Now()
		var got *transport.Frame
		for i := 0; i < codecCalls; i++ {
			var err error
			if got, _, err = transport.DecodeFrame(buf); err != nil {
				return nil, err
			}
		}
		decNs += time.Since(t0).Nanoseconds()
		if !reflect.DeepEqual(got, f) {
			return nil, fmt.Errorf("frame codec round trip changed %+v into %+v", f, got)
		}
	}
	calls := float64(codecCalls * len(shapes))
	return map[string]float64{
		"transport.encode_ns":   float64(encNs) / calls,
		"transport.decode_ns":   float64(decNs) / calls,
		"transport.frame_bytes": float64(bytes) / float64(len(shapes)),
	}, nil
}
